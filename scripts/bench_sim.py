#!/usr/bin/env python3
"""Scalar and lockstep-lane cost of the plant simulator, per model and block set.

For each plant model (the drone with its thrust limit, the DC servo with
its voltage limit, encoder range and encoder quantiser) and each set of
injected blocks, times ``run_plant`` on one reference and ``run_lanes`` on
1, 8, 32 and 128 references of equal length, and prints one JSON object:

* ``scalar_us_per_step``: microseconds per simulated step of ``run_plant``;
* per lane width, ``us_per_step`` (one lockstep step of every lane) and
  ``us_per_lane_step`` (the same divided by the width);
* ``crossover_lanes``: the width above which lanes are cheaper per test,
  from a straight line through the lockstep cost at widths 1 and 128;
* ``bytes_per_lane_step``: what ``run_lanes`` holds per lane and step
  (``plants.lane_step_bytes``), which sets how many lanes of a given
  length fit in the run stage's chunk budget ``campaign._CHUNK_BYTES``.

Every lane is checked against ``run_plant`` bit for bit before it is timed.
Times are the best of ``--repeats`` runs.  The run stage's constants
``campaign._MIN_LANES`` and ``campaign._CHUNK_BYTES`` rest on this
measurement.

    PYTHONPATH=src python3 scripts/bench_sim.py [--steps 2000] [--repeats 3]
"""
from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter

import numpy as np

from loopstress.plants import (
    backlash,
    coulomb_friction,
    dc_servo_spec,
    dead_zone,
    drone_spec,
    lane_step_bytes,
    quadratic_friction,
    run_lanes,
    run_plant,
)

MODELS = {"drone_alt": drone_spec, "dc_servo": dc_servo_spec}
BLOCK_SETS = {
    "plain": (),
    "dead_zone": (dead_zone(0.05),),
    "backlash": (backlash(0.05),),
    "coulomb": (coulomb_friction(0.05),),
    "quadratic": (quadratic_friction(0.002),),
    "all": (dead_zone(0.05), backlash(0.05), coulomb_friction(0.05), quadratic_friction(0.002)),
}
WIDTHS = (1, 8, 32, 128)


def best_time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return best


def check_lanes(spec, references) -> None:
    for ref, lane in zip(references, run_lanes(spec, references)):
        run = run_plant(spec, ref)
        same = (
            lane.output.tobytes() == run.trace.output.tobytes()
            and lane.diverged == run.diverged
            and np.float64(lane.deviation_mean).tobytes()
            == np.float64(run.log.mean_deviation).tobytes()
            and lane.actuator_saturation_fraction == run.log.actuator_saturation_fraction
            and lane.sensor_saturation_fraction == run.log.sensor_saturation_fraction
        )
        if not same:
            raise AssertionError(f"a lane differs from run_plant for {spec}")


def measure(steps: int, repeats: int) -> dict:
    """The report: every model and block set at ``steps`` samples per reference."""
    # A 1 Hz sine at the 1 ms controller period, at amplitudes that reach
    # the saturations on the larger lanes.
    t = np.arange(steps) * 0.001
    references = [a * np.sin(2.0 * np.pi * t) for a in np.linspace(0.1, 8.0, max(WIDTHS))]

    rows = []
    for model, make in MODELS.items():
        for name, blocks in BLOCK_SETS.items():
            spec = make(extra_blocks=blocks)
            scalar = best_time(lambda: run_plant(spec, references[-1]), repeats)
            lanes = {}
            for width in WIDTHS:
                refs = references[:: max(WIDTHS) // width][:width]
                check_lanes(spec, refs)
                step = best_time(lambda: run_lanes(spec, refs), repeats) / steps
                lanes[str(width)] = {
                    "us_per_step": step * 1e6,
                    "us_per_lane_step": step / width * 1e6,
                }
            scalar_us = scalar / steps * 1e6
            first, last = lanes[str(WIDTHS[0])]["us_per_step"], lanes[str(WIDTHS[-1])]["us_per_step"]
            slope = (last - first) / (WIDTHS[-1] - WIDTHS[0])
            fixed = first - slope * WIDTHS[0]
            rows.append({
                "model": model,
                "blocks": name,
                "scalar_us_per_step": scalar_us,
                "bytes_per_lane_step": lane_step_bytes(spec),
                "lanes": lanes,
                "crossover_lanes": fixed / (scalar_us - slope) if scalar_us > slope else None,
            })
    return {"steps": steps, "widths": list(WIDTHS), "rows": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=2000, help="samples per reference")
    parser.add_argument("--repeats", type=int, default=3, help="timed runs; the best counts")
    args = parser.parse_args(argv)
    print(json.dumps(measure(args.steps, args.repeats), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
