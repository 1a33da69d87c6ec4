"""Command-line front end.

Stages are separate subcommands so long campaigns can be resumed and
artifacts inspected between steps::

    loopstress calibrate --config cfg.json --out out/
    loopstress bound     --config cfg.json --out out/
    loopstress generate  --config cfg.json --out out/
    loopstress run       --config cfg.json --out out/ --workers 4
    loopstress analyze   --config cfg.json --out out/
    loopstress campaign  --config cfg.json --out out/   # bound..analyze in one go

The run stage sorts the tests by length and simulates tests of similar
length together, as the lanes of one lockstep loop, in chunks of at most
400,000 lane-steps (10 to 15 MB each); chunks of fewer than 25 tests run
test by test.  ``--workers N`` spreads the chunks over N processes, longest
first.  ``calibrate`` and ``bound`` run their simulations one at a time in
this process and ignore ``--workers``.  Results are the same bits for any
worker count.  A run stage that lasts more than 5 s
(``PROGRESS_INTERVAL_S``) prints the tests done, of the total, and the rate
to stderr, at most that often.

``analyze`` writes ``mr_report.json`` with a fixed-size summary of the MR1
and MR2 violations (counts per shape, the tests in most violations, the
saturating share, MR2 counts per octave of frequency with a 0 Hz bin, and
the records of largest margin) and every MR3 violation.  With
``--full-violations`` (also on ``campaign``) every violation record is
streamed, chunk by chunk, to ``mr_violations.jsonl``; without it a stale
one is removed.

Exit codes: 0 success, 2 success with warnings (e.g. the calibration stress
test never crossed the threshold, a bound gap could not be resolved, or the
bound search hit ``max_frequencies`` and saved its partial map), 3 invalid
input (config or artifact schema), 4 internal failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import sys
import time
from pathlib import Path

from . import analysis, campaign, persist
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

# Seconds between two progress lines of the run stage on stderr.
PROGRESS_INTERVAL_S = 5.0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopstress",
        description="Frequency/amplitude stress testing of control loops.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def stage(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="campaign config (JSON)")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--workers", type=int, default=None, help="override worker count")
        p.add_argument("--out", default=".", help="output directory (default: cwd)")
        return p

    stage("calibrate", "pick the per-test repetition count")
    stage("bound", "sample the linear amplitude envelope")
    g = stage("generate", "draw the campaign test set")
    g.add_argument("--bounds", default=None, help=f"bounds artifact (default <out>/{BOUNDS_FILE})")
    r = stage("run", "execute the test set")
    r.add_argument("--tests", default=None, help=f"test-set artifact (default <out>/{TESTS_FILE})")
    a = stage("analyze", "check relations, estimate bandwidth, export tables")
    a.add_argument("--results", default=None, help=f"results artifact (default <out>/{RESULTS_FILE})")
    c = stage("campaign", "bound, generate, run and analyze in sequence")
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
        if args.workers < 1:
            raise ConfigError("workers must be at least 1")
        cfg = dataclasses.replace(cfg, workers=args.workers)
    return cfg


def cmd_calibrate(cfg: CampaignConfig, out: Path) -> int:
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
    print(f"calibration: dnl per prefix {[round(v, 4) for v in curve]}")
    print(f"calibration: chose {periods} period(s) per test")
    if not exceeded:
        print(
            "warning: the harshest test never exceeded the dnl threshold; "
            f"falling back to max_periods={cfg.max_periods}",
            file=sys.stderr,
        )
        return EXIT_WARNINGS
    return EXIT_OK


def cmd_bound(cfg: CampaignConfig, out: Path) -> int:
    try:
        bound_map = campaign.optimistic_amplitude_bound(
            cfg.plant, cfg.inputs, max_frequencies=cfg.max_frequencies
        )
    except campaign.BoundRefinementError as exc:
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
            "gap above delta_a (envelope jump sharper than refinable)",
            file=sys.stderr,
        )
        return EXIT_WARNINGS
    return EXIT_OK


def cmd_generate(cfg: CampaignConfig, out: Path, bounds_path=None) -> int:
    bounds = persist.load_bounds(bounds_path or out / BOUNDS_FILE)
    test_set = campaign.generate_test_set(
        bounds, cfg.shapes, cfg.inputs, seed=cfg.seed, beta_params=cfg.beta_params
    )
    persist.save_test_set(out / TESTS_FILE, test_set)
    print(
        f"generated {len(test_set.tests)} tests "
        f"({len(cfg.shapes)} shapes, step {test_set.frequency_step:g} Hz)"
    )
    return EXIT_OK


def _progress(label: str):
    """``report(done, total)`` that prints the count and rate to stderr, once
    ``PROGRESS_INTERVAL_S`` has passed since the start or the last line."""
    start = last = time.monotonic()

    def report(done: int, total: int) -> None:
        nonlocal last
        now = time.monotonic()
        if now - last >= PROGRESS_INTERVAL_S:
            last = now
            print(f"{label}: {done}/{total} tests, {done / (now - start):.1f} tests/s",
                  file=sys.stderr)

    return report


def cmd_run(cfg: CampaignConfig, out: Path, tests_path=None) -> int:
    test_set = persist.load_test_set(tests_path or out / TESTS_FILE)
    results = campaign.execute_campaign(
        cfg.plant, test_set, cfg.inputs, workers=cfg.workers, progress=_progress("run")
    )
    persist.save_results(out / RESULTS_FILE, results)
    diverged = sum(r.diverged for r in results)
    print(f"ran {len(results)} tests ({diverged} diverged)")
    return EXIT_OK


def cmd_analyze(cfg: CampaignConfig, out: Path, results_path=None,
                full_violations: bool = False) -> int:
    results = persist.load_results(results_path or out / RESULTS_FILE)
    th = cfg.inputs.dnl_threshold

    bandwidth_report = {}
    bandwidths = {}
    for shape in cfg.shapes:
        of_shape = [r for r in results if r.case.shape is shape]
        try:
            est = analysis.estimate_bandwidth(of_shape, th)
        except ValueError:
            bandwidth_report[shape.value] = {
                "value": None, "status": "insufficient-data", "n_points": 0,
            }
            bandwidths[shape] = None
            continue
        bandwidth_report[shape.value] = {
            "value": est.value, "status": est.status.value, "n_points": est.n_points,
        }
        bandwidths[shape] = est
    mr3, undefined = analysis.check_mr3(bandwidths, cfg.mr3_epsilon)

    full_path = out / MR_VIOLATIONS_FILE
    if full_violations:
        writer = persist.violation_writer(full_path)
    else:
        full_path.unlink(missing_ok=True)  # it would not match the new report
        writer = contextlib.nullcontext()
    with writer as sink:
        mr1 = analysis.check_mr1(results, sink)
        mr2, skipped = analysis.check_mr2(
            results, th, cfg.mr2_bin_tolerance, cfg.mr2_equality_tolerance, sink
        )
        if sink is not None:
            sink(mr3)

    scatter, dof_rows = analysis.export_plot_data(results, th, cfg.boundary_factor)
    persist.save_csv(out / SCATTER_FILE, analysis.SCATTER_HEADER, scatter)
    persist.save_csv(out / DOF_FILE, analysis.DOF_HEADER, dof_rows)

    scope_counts = {s.value: 0 for s in analysis.ScopeClass}
    scope_column = analysis.SCATTER_HEADER.index("scope")
    for row in scatter:
        scope_counts[row[scope_column]] += 1

    persist.save_json_report(
        out / MR_REPORT_FILE,
        {
            "kind": "mr_report",
            "dnl_threshold": th,
            "mr1": mr1.as_report(),
            "mr2": {**mr2.as_report(), "skipped_components": skipped},
            "mr3": {
                "violations": mr3,
                "undefined_shapes": list(undefined),
                "epsilon": cfg.mr3_epsilon,
            },
            "bandwidth": bandwidth_report,
            "scope_counts": scope_counts,
        },
    )
    print(
        f"analysis: {len(mr1)} MR1, {len(mr2)} MR2, {len(mr3)} MR3 violation(s); "
        f"scope {scope_counts}"
    )
    return EXIT_OK


def cmd_campaign(cfg: CampaignConfig, out: Path, full_violations: bool = False) -> int:
    # Each stage reloads its input artifact from disk, so a one-shot campaign
    # is byte-for-byte the same as running the stages one by one.
    code = cmd_bound(cfg, out)
    if code not in (EXIT_OK, EXIT_WARNINGS):
        return code
    analyze = functools.partial(cmd_analyze, full_violations=full_violations)
    for step in (cmd_generate, cmd_run, analyze):
        step_code = step(cfg, out)
        if step_code not in (EXIT_OK, EXIT_WARNINGS):
            return step_code
        code = max(code, step_code)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT

    try:
        if args.command == "calibrate":
            return cmd_calibrate(cfg, out)
        if args.command == "bound":
            return cmd_bound(cfg, out)
        if args.command == "generate":
            return cmd_generate(cfg, out, args.bounds)
        if args.command == "run":
            return cmd_run(cfg, out, args.tests)
        if args.command == "analyze":
            return cmd_analyze(cfg, out, args.results, args.full_violations)
        if args.command == "campaign":
            return cmd_campaign(cfg, out, args.full_violations)
        raise AssertionError(f"unhandled command {args.command!r}")
    except (persist.SchemaError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
