#!/usr/bin/env python3
"""Campaign benchmark for loopstress.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout: the program is taken from the
checkout's ``src/`` and ``configs/``, and scratch files go to
``.bench_build/perfbench/`` in the checkout, which is removed again except
for the span file of a traced run.

``--trace 0`` times the workload's ``loopstress`` command, started from
this one process as a fresh interpreter per invocation (through
``launch.py``), over and over until ``--seconds`` are used (at least once).
It reports the means of wall time and CPU time (the command plus its pool
workers, from ``os.wait4``), the median of peak resident memory, and
``setup_s``: the mean over fresh interpreters, spread over the run, that
import ``loopstress`` and load the workload's config.  The three times are
in reference seconds: scaled by a probe of the host's speed taken between
the invocations (see ``probe_time``).

``--trace 1`` runs the command once as in ``--trace 0``, then alternates
in-process ``--workers 1`` runs without and with spans around every public
function (see ``tracer.py``) until ``--seconds`` are used.  The per-layer
metrics come from the spans of the traced run with the median wall;
``trace.overhead_s`` is the median traced minus the median untraced wall.

Every invocation's artifacts are checked: they reload through the
``persist`` loaders, counts agree, and their sha256 (with the exit code) is
identical across every invocation of the run, including the traced
``--workers 1`` one.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 3 means
the checkout lacks the program; no result line is printed then.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean, median
from time import perf_counter
from typing import Callable

from spans import ancestors, layer_self_times, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
WORK = ROOT / ".bench_build" / "perfbench"

OK_EXITS = (0, 2)
RUN_LIMIT_S = 170.0  # children are killed past this, so a run ends within 180 s
SETUP_EDGE = 5  # host samples before and after the timed invocations
PROBES_PER_SAMPLE = 4
PROBE_REF_S = 0.05  # probe time that defines the reference host speed
DESK_SEEDS = 4
LAYERS = ("signals", "plants", "spectral", "campaign", "analysis", "persist", "config")
SETUP_CODE = (
    "import sys, loopstress\n"
    "from loopstress.config import load_config\n"
    "load_config(sys.argv[1])\n"
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, a set-up step failed)."""


class CheckFailed(Exception):
    """An invocation's artifacts are wrong."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- child processes ------------------------------------------------------

@dataclass(frozen=True)
class Invocation:
    exit: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def invoke(argv: list[str], log: Path, deadline: float) -> Invocation:
    """Run ``argv`` to completion in its own process group and measure it.

    The command runs under ``launch.py``, whose ``os.wait4`` gives this
    command's own rusage (its reaped pool workers included), so neither the
    harness's memory nor another invocation's leaks into its figures.  The
    group is killed at ``deadline`` and after the launcher ends, so no
    process outlives the call.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    report = log.with_suffix(".usage.json")
    report.unlink(missing_ok=True)
    launcher = [sys.executable, "-I", "-S", str(BENCH / "launch.py"), str(report), "--", *argv]
    with open(log, "wb") as fh:
        start = perf_counter()
        proc = subprocess.Popen(
            launcher, cwd=log.parent, env=env, stdout=fh, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        timer = threading.Timer(max(0.0, deadline - start), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, _ = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        _kill_group(proc.pid)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not report.is_file():
        # Killed at the deadline, or the command could not be started.
        return Invocation(exit=min(proc.returncode, -1), wall_s=wall, cpu_s=0.0, peak_rss_mb=0.0)
    usage = json.loads(report.read_text(encoding="utf-8"))
    return Invocation(
        exit=usage["exit"],
        wall_s=usage["wall_s"],
        cpu_s=usage["utime_s"] + usage["stime_s"],
        peak_rss_mb=usage["maxrss_kb"] * 1024 / 1e6,
    )


def log_tail(log: Path, lines: int = 5) -> str:
    return "\n".join(log.read_text(errors="replace").splitlines()[-lines:])


def artifacts_digest(out: Path, exit_code: int) -> str:
    h = hashlib.sha256(f"exit {exit_code}\n".encode())
    for path in sorted(out.iterdir()):
        h.update(f"{path.name}\n".encode())
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


# -- output checks --------------------------------------------------------

def check_bound(out: Path, cfg, exit_code: int) -> str:
    from loopstress import persist

    bm = persist.load_bounds(out / "bounds.jsonl")
    expect(
        bm.frequencies[0] == cfg.inputs.f_min and bm.frequencies[-1] == cfg.inputs.f_max,
        "bound map does not span [f_min, f_max]",
    )
    expect(all(b <= cfg.inputs.a_max for b in bm.bounds), "a bound exceeds a_max")
    expect(bm.probes >= len(bm.frequencies), "fewer probes than sampled frequencies")
    expect(not bm.unresolved or exit_code == 2, "unresolved pairs without exit 2")
    return (
        f"{len(bm.frequencies)} frequencies, {bm.probes} probes, "
        f"{len(bm.unresolved)} unresolved"
    )


def check_report(out: Path, n_results: int) -> tuple[int, int]:
    """The MR report and tables of ``n_results`` results; returns MR1/MR2 counts."""
    from loopstress import persist

    report = persist.load_json_report(out / "mr_report.json")
    expect(report.get("kind") == "mr_report", "mr_report.json has the wrong kind")
    expect(
        sum(report["scope_counts"].values()) == n_results,
        "scope counts do not add up to the result count",
    )
    for rel in ("mr1", "mr2"):
        for v in report[rel]["violations"]:
            i, j = v["subjects"]
            expect(0 <= i < n_results and 0 <= j < n_results and i != j,
                   f"{rel} violation names tests {i}, {j} out of {n_results}")
    with open(out / "scatter.csv", encoding="utf-8") as fh:
        expect(sum(1 for _ in fh) == n_results + 1, "scatter.csv lacks rows")
    return len(report["mr1"]["violations"]), len(report["mr2"]["violations"])


def check_campaign(out: Path, cfg, exit_code: int) -> str:
    from loopstress import campaign, persist

    summary = check_bound(out, cfg, exit_code)
    tests = persist.load_test_set(out / "tests.jsonl").tests
    results = persist.load_results(out / "results.jsonl")
    expect(len(results) == len(tests), f"{len(results)} results for {len(tests)} tests")
    expect(all(r.test == t for r, t in zip(results, tests)), "results out of test order")
    # Re-run a few tests through the library and compare with the artifact.
    for idx in sorted({0, len(tests) // 2, len(tests) - 1}):
        fresh = campaign.execute_campaign(cfg.plant, [tests[idx]], cfg.inputs)[0]
        expect(
            fresh.dnl == results[idx].dnl and fresh.components == results[idx].components,
            f"test {idx} scores differently when run alone",
        )
    mr1, mr2 = check_report(out, len(results))
    return f"{summary}; {len(tests)} tests; {mr1} MR1, {mr2} MR2"


def check_analyze(out: Path, n_results: int) -> str:
    mr1, mr2 = check_report(out, n_results)
    return f"{n_results} results; {mr1} MR1, {mr2} MR2"


# -- workloads ------------------------------------------------------------

def prepare_desk_results(cfg_path: Path, seed: int, workers: int, work: Path):
    """Results of ``DESK_SEEDS`` consecutive seeds on one bound map, merged."""
    from loopstress import campaign, persist
    from loopstress.config import load_config

    cfg = load_config(cfg_path)
    bound_map = campaign.optimistic_amplitude_bound(
        cfg.plant, cfg.inputs, max_frequencies=cfg.max_frequencies
    )
    results = []
    for s in range(seed, seed + DESK_SEEDS):
        tests = campaign.generate_test_set(
            bound_map, cfg.shapes, cfg.inputs, seed=s, beta_params=cfg.beta_params
        )
        results.extend(
            campaign.execute_campaign(cfg.plant, tests, cfg.inputs, workers=workers)
        )
    path = work / "results.jsonl"
    persist.save_results(path, results)
    n = len(results)
    return ["--results", str(path)], lambda out, cfg, code: check_analyze(out, n)


@dataclass(frozen=True)
class Workload:
    config: str  # file name under configs/
    stage: str  # loopstress subcommand
    # check(out dir, config, exit code) -> summary, raising CheckFailed
    check: Callable | None = None
    # prepare(config path, seed, workers, work dir) -> (extra CLI args, check)
    prepare: Callable | None = None


WORKLOADS = {
    "drone-full-bound": Workload("drone_full.json", "bound", check=check_bound),
    "servo-friction-campaign": Workload(
        "dc_servo_quadratic_friction.json", "campaign", check=check_campaign
    ),
    "desk-analyze-624": Workload("drone_desk.json", "analyze", prepare=prepare_desk_results),
}


# -- per-layer metrics from spans -----------------------------------------

def layer_metrics(spans: list, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced run (see README.md for definitions)."""
    own = self_times(spans)
    wall = spans[0][2] - spans[0][1]

    def picked(prefix):
        return [i for i, s in enumerate(spans) if s[0].startswith(prefix)]

    def self_s(prefix):
        return sum(own[i] for i in picked(prefix))

    def incl_s(prefix):
        return sum(spans[i][2] - spans[i][1] for i in picked(prefix))

    def count(prefix, key=None):
        idx = picked(prefix)
        if key is None:
            return len(idx)
        # A call that raised has no counts.
        return sum((spans[i][4] or {}).get(key, 0) for i in idx)

    def ratio(a, b):
        return a / b if b else 0.0

    run_spans = set(picked("campaign.run"))
    run_steps = sum(
        (spans[i][4] or {}).get("steps", 0) for i in picked("plants.sim")
        if run_spans.intersection(ancestors(spans, i))
    )
    results_bytes = [
        (spans[i][4] or {}).get("bytes", 0)
        for i in picked("persist.save_results") + picked("persist.load_results")
    ]
    sims, steps = count("plants.sim"), count("plants.sim", "steps")
    sim_s, run_s = self_s("plants.sim"), incl_s("campaign.run")
    frequencies = count("campaign.bound", "frequencies")
    layers = layer_self_times(spans)

    m = {
        "signals.render_s": self_s("signals.render"),
        "signals.render_calls": count("signals.render"),
        "plants.sim_s": sim_s,
        "plants.sims": sims,
        "plants.steps": steps,
        "plants.us_per_step": ratio(sim_s, steps) * 1e6,
        "plants.diverged": count("plants.sim", "diverged"),
        "spectral.s": layers.get("spectral", 0.0),
        "spectral.dft_calls": count("spectral.dft"),
        "spectral.dft_per_sim": ratio(count("spectral.dft"), sims),
        "campaign.bound_s": incl_s("campaign.bound"),
        "campaign.bound_probes": count("campaign.bound", "probes"),
        "campaign.bound_frequencies": frequencies,
        "campaign.bound_distinct_spp": count("campaign.bound", "distinct_spp"),
        "campaign.bound_spp_ratio": ratio(count("campaign.bound", "distinct_spp"), frequencies),
        "campaign.bound_unresolved": count("campaign.bound", "unresolved"),
        "campaign.generate_s": incl_s("campaign.generate"),
        "campaign.tests": count("campaign.generate", "tests"),
        "campaign.run_s": run_s,
        "campaign.run_tests_per_s": ratio(count("campaign.run", "tests"), run_s),
        "campaign.run_steps_per_s": ratio(run_steps, run_s),
        "campaign.run_other_s": self_s("campaign.run"),
        "analysis.mr1_s": incl_s("analysis.mr1"),
        "analysis.mr1_pairs": count("analysis.mr1", "pairs"),
        "analysis.mr1_violations": count("analysis.mr1", "violations"),
        "analysis.mr2_s": incl_s("analysis.mr2"),
        "analysis.mr2_violations": count("analysis.mr2", "violations"),
        "analysis.mr2_skipped": count("analysis.mr2", "skipped"),
        "analysis.mr3_s": incl_s("analysis.mr3"),
        "analysis.bandwidth_s": incl_s("analysis.bandwidth"),
        "analysis.export_s": self_s("analysis.export"),
        "analysis.scope_s": self_s("analysis.scope"),
        "persist.save_s": self_s("persist.save"),
        "persist.load_s": self_s("persist.load"),
        "persist.report_bytes": count("persist.save_json_report", "bytes"),
        "persist.results_bytes": max(results_bytes, default=0),
        "config.load_s": self_s("config.load"),
        "trace.wall_s": wall,
        "trace.other_s": layers.get("other", 0.0),
        "trace.overhead_s": wall - untraced_wall,
    }
    for layer in LAYERS:
        m[f"self.{layer}_s"] = layers.get(layer, 0.0)
    return m


# -- runs -----------------------------------------------------------------

class Checker:
    """Checks the first good invocation in full and the others by digest."""

    def __init__(self, check, cfg):
        self.check, self.cfg = check, cfg
        self.digest = None
        self.summary = ""
        self.errors: list[str] = []

    def __call__(self, inv: Invocation, out: Path, log: Path) -> bool:
        try:
            expect(inv.exit in OK_EXITS, f"exit {inv.exit}:\n{log_tail(log)}")
            digest = artifacts_digest(out, inv.exit)
            if self.digest is None:
                self.summary = self.check(out, self.cfg, inv.exit)
                self.digest = digest
            else:
                expect(digest == self.digest, "artifacts differ between invocations")
        except (CheckFailed, ValueError, LookupError, TypeError, OSError) as exc:
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return False
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return True


def setup_time(cfg_path: Path, work: Path, deadline: float) -> float:
    """Wall time of a fresh interpreter importing loopstress and loading a config."""
    log = work / "setup.log"
    inv = invoke([sys.executable, "-c", SETUP_CODE, str(cfg_path)], log, deadline)
    if inv.exit != 0:
        raise BenchError(f"importing loopstress failed:\n{log_tail(log)}")
    return inv.wall_s


def probe_time() -> float:
    """Wall time of a fixed work unit run in this process.

    It gauges the host's current speed with a mix of what the program spends
    its time on: a float loop like a plant step, an indented JSON dump like a
    report write, and numpy FFTs.  Garbage collection is off while it runs,
    so the harness's own heap does not enter the figure.
    """
    import numpy as np

    gc.disable()
    try:
        start = perf_counter()
        x, v = 1.0, 0.0
        for _ in range(80_000):
            v += (-x - 0.1 * v) * 0.001
            x += v * 0.001
        rows = [{"i": i, "x": x * i, "pair": [i, -i]} for i in range(6_000)]
        json.dumps(rows, indent=2, sort_keys=True)
        sig = np.sin(np.arange(4096) * 0.01)
        for _ in range(80):
            np.abs(np.fft.rfft(sig))
        return perf_counter() - start
    finally:
        gc.enable()


def timed_invocations(argv_for, checker: Checker, seconds: float, deadline: float,
                      work: Path, between) -> list[tuple[Invocation, bool]]:
    """Invoke until ``seconds`` are used or the next one would overrun them,
    calling ``between()`` after each invocation."""
    log = work / "cmd.log"
    done: list[tuple[Invocation, bool]] = []
    start = perf_counter()
    while True:
        out = work / f"out{len(done)}"
        inv = invoke(argv_for(out), log, deadline)
        done.append((inv, checker(inv, out, log)))
        between()
        typical = median(i.wall_s for i, _ in done)
        now = perf_counter()
        if now - start + typical > seconds or now + 2 * typical > deadline:
            return done


def traced_invocations(cli_argv, cli_args, checker: Checker, seconds: float,
                       deadline: float, work: Path, kept: Path):
    """One CLI invocation, then in-process ``--workers 1`` pairs (untraced,
    traced) until ``seconds`` are used.  The traced run with the median wall
    gives the per-layer metrics; its spans are copied to ``kept``."""
    out, log = work / "out-cli", work / "cmd.log"
    inv = invoke(cli_argv(out), log, deadline)
    done = [(inv, checker(inv, out, log))]
    walls: dict[bool, list[float]] = {False: [], True: []}
    reports: list[tuple[float, Path]] = []
    start = perf_counter()
    while True:
        for traced in (False, True):
            name = f"{'traced' if traced else 'untraced'}{len(walls[traced])}"
            out, log, report = work / name, work / f"{name}.log", work / f"{name}.json"
            argv = [sys.executable, str(BENCH / "tracer.py"), "--report", str(report),
                    *(["--trace"] if traced else []), "--", *cli_args(out, 1)]
            inv = invoke(argv, log, deadline)
            done.append((inv, checker(inv, out, log)))
            if report.is_file():
                wall = json.loads(report.read_text(encoding="utf-8"))["wall_s"]
                walls[traced].append(wall)
                if traced:
                    reports.append((wall, report))
        pair = done[-1][0].wall_s + done[-2][0].wall_s
        now = perf_counter()
        if now - start + pair > seconds or now + 2 * pair > deadline:
            break
    if not (reports and walls[False]):
        return done, layer_metrics([["run", 0.0, 0.0, -1, None]], 0.0)
    reports.sort()
    chosen = reports[len(reports) // 2][1]
    shutil.copyfile(chosen, kept)
    print(f"spans: {kept.relative_to(ROOT)}")
    spans = json.loads(chosen.read_text(encoding="utf-8"))["spans"]
    return done, layer_metrics(spans, median(walls[False]))


def load_metric_units() -> dict[str, dict[str, str]]:
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def describe(values) -> str:
    values = sorted(values)
    return (f" (n={len(values)}; min {values[0]:.4g}, median {median(values):.4g}, "
            f"max {values[-1]:.4g})")


def run(args) -> int:
    if not (SRC / "loopstress" / "cli.py").is_file() or not CONFIGS.is_dir():
        raise BenchError(f"no loopstress sources under {ROOT}")
    units = load_metric_units()
    sys.path.insert(0, str(SRC))
    from loopstress.config import load_config

    workload = WORKLOADS[args.workload]
    cfg_path = CONFIGS / workload.config
    cfg = load_config(cfg_path)
    workers = min(2, len(os.sched_getaffinity(0)))
    deadline = perf_counter() + RUN_LIMIT_S
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        extra, check = [], workload.check
        if workload.prepare is not None:
            extra, check = workload.prepare(cfg_path, args.seed, workers, work)
        checker = Checker(check, cfg)

        def cli_args(out: Path, n_workers: int) -> list[str]:
            return [
                workload.stage, "--config", str(cfg_path), "--seed", str(args.seed),
                "--workers", str(n_workers), "--out", str(out), *extra,
            ]

        def cli_argv(out: Path) -> list[str]:
            return [sys.executable, "-m", "loopstress", *cli_args(out, workers)]

        print(f"workload {args.workload}: loopstress {workload.stage} on "
              f"configs/{workload.config}, seed {args.seed}, workers {workers}")
        notes: dict[str, str] = {}
        if args.trace:
            kind = "per_layer"
            kept = WORK / f"trace-{args.workload}-seed{args.seed}.json"
            invs, values = traced_invocations(
                cli_argv, cli_args, checker, args.seconds, deadline, work, kept
            )
            layer_sum = sum(values[f"self.{layer}_s"] for layer in LAYERS)
            gap = layer_sum + values["trace.other_s"] - values["trace.wall_s"]
            if abs(gap) > 1e-6 * max(1.0, values["trace.wall_s"]):
                checker.errors.append(f"layer self times miss the traced wall by {gap:g} s")
            print(f"traced wall {values['trace.wall_s']:.4f} s = layer self times "
                  f"{layer_sum:.4f} s + other {values['trace.other_s']:.4f} s; "
                  f"overhead {values['trace.overhead_s']:.4f} s")
        else:
            kind = "end_to_end"
            # A host sample is one set-up time and a few probes.  Samples
            # are spread over the run: before, between and after the
            # invocations.
            setup: list[float] = []
            probes: list[float] = []

            def sample():
                setup.append(setup_time(cfg_path, work, deadline))
                probes.extend(probe_time() for _ in range(PROBES_PER_SAMPLE))

            sample()  # warm-up: bytecode caches
            setup.clear()
            probes.clear()
            for _ in range(SETUP_EDGE):
                sample()
            invs = timed_invocations(cli_argv, checker, args.seconds, deadline, work, sample)
            for _ in range(SETUP_EDGE):
                sample()
            unscaled = {
                "wall_s": [i.wall_s for i, _ in invs],
                "cpu_s": [i.cpu_s for i, _ in invs],
                "setup_s": setup,
            }
            # The host's speed changes by up to 2x over seconds to minutes,
            # in phases, so a median jumps between a fast and a slow mode.
            # Times are means over the run, scaled to the reference speed at
            # which the probe takes PROBE_REF_S.
            scale = PROBE_REF_S / fmean(probes)
            values = {
                "wall_ref_s": fmean(unscaled["wall_s"]) * scale,
                "cpu_ref_s": fmean(unscaled["cpu_s"]) * scale,
                "setup_s": fmean(setup) * scale,
                "peak_rss_mb": median(i.peak_rss_mb for i, _ in invs),
            }
            notes = {"peak_rss_mb": describe(i.peak_rss_mb for i, _ in invs)}
            print(f"probe: mean {fmean(probes):.6g} s{describe(probes)}; scale {scale:.4g}")
            for name, samples in unscaled.items():
                print(f"unscaled {name}: mean {fmean(samples):.6g} s{describe(samples)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not ok for _, ok in invs)
    correct = failed == 0 and not checker.errors
    print(f"check: {checker.summary or 'none passed'}")
    print(f"sha256: {checker.digest}")
    print(f"failed_share: {failed / len(invs):.4g} ({failed}/{len(invs)} invocations)")
    for error in checker.errors:
        print(f"check failed: {error}", file=sys.stderr)
    for name, unit in units[kind].items():
        print(f"{name}: {values[name]:.6g} {unit}{notes.get(name, '')}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units[kind].items()}
    print(json.dumps({"correct": correct, "attempted": len(invs), "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="loopstress campaign benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
