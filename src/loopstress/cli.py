"""Command-line front end.

Stages are separate subcommands so long campaigns can be resumed and
artifacts inspected between steps::

    loopstress calibrate --config cfg.json --out out/
    loopstress bound     --config cfg.json --out out/
    loopstress generate  --config cfg.json --out out/
    loopstress run       --config cfg.json --out out/ --workers 4
    loopstress analyze   --config cfg.json --out out/
    loopstress campaign  --config cfg.json --out out/   # bound..analyze in one go

``--workers N`` spreads the run stage over at most N processes; a run with
less than two chunks of work (``campaign._CHUNK_STEPS`` steps each), and
every other stage, runs in this process, where it costs less than starting
a pool.  Results are the same bits for any worker count.  A bound or run
stage that lasts more than 5 s (``PROGRESS_INTERVAL_S``) prints its
progress to stderr, at most that often.  ``analyze`` writes ``mr_report.json`` (built by
:func:`loopstress.analysis.analyze`) and the two plot tables; with
``--full-violations`` (also on ``campaign``) it first prints the record
count and an estimated size, exits 3 if that exceeds the free space under
``--out``, and else streams every violation record to
``mr_violations.jsonl``; without the flag it removes a stale one.  The
README describes the stages and the report.

Exit codes: 0 success, 2 success with warnings (e.g. the calibration stress
test never crossed the threshold, a bound gap could not be resolved, or the
bound search hit ``max_frequencies`` and saved its partial map), 3 invalid
input, 4 internal failure.  Any malformed config or input artifact (a value
of the wrong JSON type, a missing field, a line that is not a JSON object),
a test set sampled unlike the config's plant, an unreadable file, an
output directory that cannot be made or a stepper that cannot be built
exits 3 with one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import shutil
import sys
import time
from pathlib import Path

# ``campaign`` and ``analysis`` are imported by the stages that run them, so
# ``analyze`` loads no simulator code and the simulating stages no checker.
from . import persist, records
from .config import CampaignConfig, ConfigError, load_config

EXIT_OK = 0
EXIT_WARNINGS = 2
EXIT_INVALID_INPUT = 3
EXIT_INTERNAL = 4

BOUNDS_FILE = "bounds.jsonl"
TESTS_FILE = "tests.jsonl"
RESULTS_FILE = "results.jsonl"
CALIBRATION_FILE = "calibration.json"
MR_REPORT_FILE = "mr_report.json"
MR_VIOLATIONS_FILE = "mr_violations.jsonl"
SCATTER_FILE = "scatter.csv"
DOF_FILE = "dof.csv"

# Seconds between two progress lines of the bound or run stage on stderr.
PROGRESS_INTERVAL_S = 5.0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopstress",
        description="Frequency/amplitude stress testing of control loops.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def stage(name: str, run, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="campaign config (JSON)")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--workers", type=int, default=None, help="override worker count")
        p.add_argument("--out", default=".", help="output directory (default: cwd)")
        p.set_defaults(run=run)
        return p

    stage("calibrate", cmd_calibrate, "pick the per-test repetition count")
    stage("bound", cmd_bound, "sample the linear amplitude envelope")
    g = stage("generate", cmd_generate, "draw the campaign test set")
    g.add_argument("--bounds", default=None, help=f"bounds artifact (default <out>/{BOUNDS_FILE})")
    r = stage("run", cmd_run, "execute the test set")
    r.add_argument("--tests", default=None, help=f"test-set artifact (default <out>/{TESTS_FILE})")
    a = stage("analyze", cmd_analyze, "check relations, estimate bandwidth, export tables")
    a.add_argument("--results", default=None, help=f"results artifact (default <out>/{RESULTS_FILE})")
    c = stage("campaign", cmd_campaign, "bound, generate, run and analyze in sequence")
    # campaign hands its args to each stage, which then reads its input from <out>.
    c.set_defaults(bounds=None, tests=None, results=None)
    for p in (a, c):
        p.add_argument(
            "--full-violations", action="store_true",
            help=f"also write every MR violation to <out>/{MR_VIOLATIONS_FILE}",
        )
    return parser


def _apply_overrides(cfg: CampaignConfig, args) -> CampaignConfig:
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.workers is not None:
        cfg = dataclasses.replace(cfg, workers=args.workers)
    return cfg


def cmd_calibrate(cfg: CampaignConfig, out: Path, args) -> int:
    from . import campaign

    curve = campaign.calibration_curve(
        cfg.plant, cfg.inputs, cfg.max_periods, cfg.calibration_shape
    )
    periods, exceeded = campaign.pick_num_periods(
        curve, cfg.inputs.dnl_threshold, cfg.max_periods
    )
    persist.save_json_report(
        out / CALIBRATION_FILE,
        {
            "kind": "calibration",
            "shape": cfg.calibration_shape.value,
            "a_max": cfg.inputs.a_max,
            "f_max": cfg.inputs.f_max,
            "dnl_threshold": cfg.inputs.dnl_threshold,
            "dnl_per_periods": list(curve),
            "chosen_periods": periods,
            "threshold_exceeded": exceeded,
        },
    )
    print(f"calibration: dnl per period count {[round(v, 4) for v in curve]}")
    print(f"calibration: chose {periods} period(s) per test")
    if not exceeded:
        print(
            "warning: the harshest test never exceeded the dnl threshold; "
            f"falling back to max_periods={cfg.max_periods}",
            file=sys.stderr,
        )
        return EXIT_WARNINGS
    return EXIT_OK


def cmd_bound(cfg: CampaignConfig, out: Path, args) -> int:
    from . import campaign

    try:
        bound_map = campaign.optimistic_amplitude_bound(
            cfg.plant, cfg.inputs, max_frequencies=cfg.max_frequencies,
            progress=_progress(_bound_line),
        )
    except records.BoundRefinementError as exc:
        # The plant and config ask for more frequencies than the cap allows.
        persist.save_bounds(out / BOUNDS_FILE, exc.partial)
        print(f"warning: {exc} (partial map saved)", file=sys.stderr)
        return EXIT_WARNINGS
    persist.save_bounds(out / BOUNDS_FILE, bound_map)
    print(
        f"bounds: {len(bound_map.frequencies)} frequencies, "
        f"{bound_map.probes} probe simulations"
    )
    if bound_map.unresolved:
        print(
            f"warning: {len(bound_map.unresolved)} adjacent pair(s) kept a bound "
            "gap above delta_a (envelope jump sharper than one period step)",
            file=sys.stderr,
        )
        return EXIT_WARNINGS
    return EXIT_OK


def cmd_generate(cfg: CampaignConfig, out: Path, args) -> int:
    from . import campaign

    bounds = persist.load_bounds(args.bounds or out / BOUNDS_FILE)
    test_set = campaign.generate_test_set(
        bounds, cfg.shapes, cfg.inputs, seed=cfg.seed, beta_params=cfg.beta_params
    )
    persist.save_test_set(out / TESTS_FILE, test_set)
    print(
        f"generated {len(test_set.tests)} tests "
        f"({len(cfg.shapes)} shapes, step {test_set.frequency_step:g} Hz)"
    )
    return EXIT_OK


def _progress(line):
    """``report(*counts)`` that prints ``line(elapsed_s, *counts)`` to stderr,
    once ``PROGRESS_INTERVAL_S`` has passed since the start or the last line."""
    start = last = time.monotonic()

    def report(*counts) -> None:
        nonlocal last
        now = time.monotonic()
        if now - last >= PROGRESS_INTERVAL_S:
            last = now
            print(line(now - start, *counts), file=sys.stderr)

    return report


def _bound_line(elapsed: float, rounds: int, frequencies: int, probes: int) -> str:
    return f"bound: round {rounds}, {frequencies} frequencies, {probes} probes, {elapsed:.1f} s"


def _run_line(elapsed: float, done: int, total: int) -> str:
    return f"run: {done}/{total} tests, {done / elapsed:.1f} tests/s"


def cmd_run(cfg: CampaignConfig, out: Path, args) -> int:
    from . import campaign

    test_set = persist.load_test_set(args.tests or out / TESTS_FILE)
    results = campaign.execute_campaign(
        cfg.plant, test_set, cfg.inputs, workers=cfg.workers, progress=_progress(_run_line)
    )
    persist.save_results(out / RESULTS_FILE, results)
    diverged = sum(r.diverged for r in results)
    print(f"ran {len(results)} tests ({diverged} diverged)")
    return EXIT_OK


def _check_room(report: dict, out: Path) -> None:
    """Print how many records ``--full-violations`` writes for ``report``
    and about how many bytes, from the mean line of its top records; raise
    ``OSError`` if that is more than the free space under ``out``."""
    records = size = 0
    for section in (report["mr1"], report["mr2"]):
        sample = [persist.violation_line_bytes(v) for v in section["violations"]]
        records += section["count"]
        size += section["count"] * sum(sample) // max(len(sample), 1)
    mr3 = report["mr3"]["violations"]
    records += len(mr3)
    size += sum(persist.violation_line_bytes(v) for v in mr3)
    print(f"violations: {records} records, about {size / 1e6:,.1f} MB, to {MR_VIOLATIONS_FILE}")
    free = shutil.disk_usage(out).free
    if size > free:
        raise OSError(
            f"--full-violations: {MR_VIOLATIONS_FILE} would take about {size / 1e6:,.1f} MB, "
            f"more than the {free / 1e6:,.1f} MB free under {out}"
        )


def cmd_analyze(cfg: CampaignConfig, out: Path, args) -> int:
    from . import analysis

    results = persist.load_results(args.results or out / RESULTS_FILE)
    report, scatter, dof_rows = analysis.analyze(results, cfg)
    full_path = out / MR_VIOLATIONS_FILE
    if args.full_violations:
        _check_room(report, out)
        with persist.violation_writer(full_path) as sink:
            analysis.list_violations(results, cfg, report["mr3"]["violations"], sink)
    else:
        full_path.unlink(missing_ok=True)  # it would not match the new report
    persist.save_csv(out / SCATTER_FILE, analysis.SCATTER_HEADER, scatter)
    persist.save_csv(out / DOF_FILE, analysis.DOF_HEADER, dof_rows)
    persist.save_json_report(out / MR_REPORT_FILE, report)
    print(
        f"analysis: {report['mr1']['count']} MR1, {report['mr2']['count']} MR2, "
        f"{len(report['mr3']['violations'])} MR3 violation(s); "
        f"scope {report['scope_counts']}"
    )
    return EXIT_OK


def cmd_campaign(cfg: CampaignConfig, out: Path, args) -> int:
    # Each stage reloads its input artifact from disk, so a one-shot campaign
    # is byte-for-byte the same as running the stages one by one.  A stage
    # returns EXIT_OK or EXIT_WARNINGS or raises, so the max is the outcome.
    return max(stage(cfg, out, args) for stage in (cmd_bound, cmd_generate, cmd_run, cmd_analyze))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        out.mkdir(parents=True, exist_ok=True)
        return args.run(cfg, out, args)
    except (persist.SchemaError, ConfigError, records.SamplingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
