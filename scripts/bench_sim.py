#!/usr/bin/env python3
"""Cost of the plant simulator's compiled stepper, per model and block set.

For each plant model (the drone with its thrust limit, the DC servo with
its voltage limit, encoder range and encoder quantiser) and each set of
injected blocks, times ``run_lanes(spec, reference, [1.0], 1)``, one
lane whose period is the whole reference, and ``run_lanes`` at 1, 2, 4 and
8 lanes of one period, and prints one JSON object whose rows hold:

* ``kernel_us_per_step``: microseconds per simulated step of that one
  lane, whose stepper writes the whole instrumentation log as it steps;
* ``lanes_us_per_lane_step``: per lane count, microseconds per step of
  one lane of ``run_lanes``.

The reference is a 1 Hz sine of amplitude 8 at the 1 ms controller period,
which reaches the saturations; lane ``k`` runs it at amplitude ``8 +
0.01 k``.  Each lane ``k`` of every lane count is checked bit for bit
against one lane on its rendered reference, ``(8 + 0.01 k) * period``,
before it is timed; the tests hold the stepper to its Python oracle.
Times are CPU times of this process (``time.process_time``), the best of
``--repeats`` runs: on a shared machine, wall-clock times of one row
spread too widely between invocations to compare.
Exits 1 if the compiled stepper cannot be built.

    PYTHONPATH=src python3 scripts/bench_sim.py [--steps 20000] [--repeats 7]
"""
from __future__ import annotations

import argparse
import json
import sys
from time import process_time

import numpy as np

from loopstress import plants
from loopstress.plants import run_lanes
from loopstress.records import (
    backlash,
    coulomb_friction,
    dc_servo_spec,
    dead_zone,
    drone_spec,
    quadratic_friction,
)

LANES = (1, 2, 4, 8)
MODELS = {"drone_alt": drone_spec, "dc_servo": dc_servo_spec}
BLOCK_SETS = {
    "plain": (),
    "dead_zone": (dead_zone(0.05),),
    "backlash": (backlash(0.05),),
    "coulomb": (coulomb_friction(0.05),),
    "quadratic": (quadratic_friction(0.002),),
    "all": (dead_zone(0.05), backlash(0.05), coulomb_friction(0.05), quadratic_friction(0.002)),
}


def best_time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = process_time()
        fn()
        best = min(best, process_time() - start)
    return best


def one_lane(spec, reference):
    """The run of ``reference``: one lane, at amplitude 1.0, whose period is
    the whole reference."""
    return run_lanes(spec, reference, [1.0], 1)


def lane_bytes(runs, k: int = 0) -> list:
    """What lane ``k`` of ``runs`` wrote, as bytes, and whether it diverged."""
    log = runs.logs[k]
    arrays = (runs.output[k, :len(log.actuation)], log.actuation, log.actuator_saturated,
              log.sensor_saturated, log.nonlinearity_deviation)
    return [a.tobytes() for a in arrays] + [runs.diverged[k]]


def lanes_us_per_lane_step(spec, period: np.ndarray, repeats: int) -> dict:
    """Per lane count of ``LANES``, the best time per lane-step of
    ``run_lanes``, after every lane is checked against one lane on its
    rendered reference."""
    timed = {}
    for lanes in LANES:
        amplitudes = [8.0 + 0.01 * k for k in range(lanes)]
        runs = run_lanes(spec, period, amplitudes, 1)
        for k, a in enumerate(amplitudes):
            if lane_bytes(runs, k) != lane_bytes(one_lane(spec, a * period)):
                raise AssertionError(f"lane {k} of {lanes} differs from one lane for {spec}")
        seconds = best_time(lambda: run_lanes(spec, period, amplitudes, 1), repeats)
        timed[str(lanes)] = seconds / (lanes * len(period)) * 1e6
    return timed


def measure(steps: int, repeats: int) -> dict:
    """The report: every model and block set at ``steps`` samples."""
    try:
        plants.load_kernel()
    except OSError as exc:
        raise SystemExit(f"error: {exc}") from exc
    period = np.sin(2.0 * np.pi * np.arange(steps) * 0.001)
    reference = 8.0 * period
    rows = []
    for model, make in MODELS.items():
        for name, blocks in BLOCK_SETS.items():
            spec = make(extra_blocks=blocks)
            kernel = best_time(lambda: one_lane(spec, reference), repeats)
            rows.append({
                "model": model,
                "blocks": name,
                "kernel_us_per_step": kernel / steps * 1e6,
                "lanes_us_per_lane_step": lanes_us_per_lane_step(spec, period, repeats),
            })
    return {"steps": steps, "rows": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=20000, help="samples of the reference")
    parser.add_argument("--repeats", type=int, default=7, help="timed runs; the best counts")
    args = parser.parse_args(argv)
    if args.steps < 2:
        parser.error("--steps must be at least 2")
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    print(json.dumps(measure(args.steps, args.repeats), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
