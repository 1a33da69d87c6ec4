#!/usr/bin/env python3
"""Start-up cost and plant-simulator cost, as one benchmark file.

Writes one JSON object to ``--out``:

* ``host``: CPU count, machine, Python and numpy versions, and whether
  bytecode caches are written (without them every interpreter compiles
  the package's sources again);
* ``startup``: for each of ``python3 -c pass``, ``import numpy`` and
  ``import loopstress``, over ``--processes`` fresh interpreters started in
  turn (one of each per round): the median and quartiles of wall time from
  start to exit, the mean CPU time (user plus system, from ``os.wait4``)
  and the largest thread count seen after the import, all times in ms.
  The interpreters start without ``OPENBLAS_NUM_THREADS``, as a user's
  shell would start them, so the thread count shows what the import itself
  leaves running;
* ``plants``: the report of ``scripts/bench_sim.py`` at ``--steps`` and
  ``--repeats``.

    PYTHONPATH=src python3 scripts/bench.py --out BENCH.json [--processes 20]
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from statistics import fmean, median, quantiles
from time import perf_counter

COMMANDS = ("pass", "import numpy", "import loopstress")
# Printed by every interpreter after its command: its thread count.
THREADS = (
    "\nimport os\n"
    "print(len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else -1)\n"
)


def fresh(code: str, env: dict) -> tuple[float, float, int]:
    """Wall time, CPU time and thread count of one new interpreter running ``code``."""
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", code + THREADS], env=env, stdout=subprocess.PIPE,
    ) as proc:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out = proc.stdout.read()
    if proc.returncode != 0:
        raise RuntimeError(f"python3 -c {code!r} exited {proc.returncode}")
    return wall, usage.ru_utime + usage.ru_stime, int(out)


def startup(processes: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    samples = {code: [] for code in COMMANDS}
    for _ in range(processes):
        for code in COMMANDS:
            samples[code].append(fresh(code, env))
    rows = []
    for code, runs in samples.items():
        wall = [1e3 * w for w, _, _ in runs]
        q1, _, q3 = quantiles(wall, n=4) if len(wall) > 1 else (wall[0],) * 3
        rows.append({
            "command": code,
            "wall_ms_median": median(wall),
            "wall_ms_q1": q1,
            "wall_ms_q3": q3,
            "cpu_ms_mean": fmean(1e3 * c for _, c, _ in runs),
            "threads": max(t for _, _, t in runs),
        })
    return {"processes": processes, "rows": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--processes", type=int, default=20, help="fresh interpreters per command")
    parser.add_argument("--steps", type=int, default=20000, help="samples of the plants reference")
    parser.add_argument("--repeats", type=int, default=3, help="timed plants runs; the best counts")
    args = parser.parse_args(argv)
    if args.processes < 1:
        parser.error("--processes must be at least 1")
    if args.steps < 2:
        parser.error("--steps must be at least 2")
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    rows = startup(args.processes)
    # Imported only now: this process's own numpy start-up would compete
    # with the interpreters timed above.
    import numpy as np

    import bench_sim

    report = {
        "host": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
        },
        "startup": rows,
        "plants": bench_sim.measure(args.steps, args.repeats),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
