#!/usr/bin/env python3
"""Four square-wave stress tests that map the drone loop's design scope.

A fixed quartet of (amplitude, period) squares drives the altitude loop from
comfortably linear to deeply saturated:

    0.6 m / 10 s   small and slow  -> tracks cleanly
    0.6 m /  1 s   small and fast  -> stressed, still periodic
    1.5 m / 10 s   larger and slow -> thrust saturates briefly, still linear
    3.5 m /  5 s   large           -> windup, terminal-velocity ramps, outside

The dnl metric separates the regimes on its own: actuator saturation per se
does not break periodicity (the 1.5 m test saturates ~14% of the time and
stays linear); what does is saturation long enough to wind up the integrator.
Pooling the tracking profiles of the two small tests estimates the closed-loop
bandwidth just below 1 Hz, and the briefly-saturating test drags that
estimate down — the first symptom of leaving the design scope.
"""
from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from loopstress.analysis import classify_scope, estimate_bandwidth
from loopstress.campaign import execute_campaign
from loopstress.plants import run_lanes
from loopstress.records import GeneratedTest, RequiredInput, drone_spec
from loopstress.signals import ShapeKind, TestCase, unit_period

QUARTET = (
    (0.6, 10.0),
    (0.6, 1.0),
    (1.5, 10.0),
    (3.5, 5.0),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--periods", type=int, default=10, help="periods per test (default 10)"
    )
    args = parser.parse_args(argv)

    inputs = RequiredInput(
        f_min=0.1, f_max=2.0, a_max=6.0, delta_a=0.05, base_periods=args.periods
    )
    plant = drone_spec()

    tests = tuple(
        GeneratedTest(
            case=TestCase(
                shape=ShapeKind.SQUARE,
                amp_gain=amp,
                time_gain=1.0 / period,
                periods=args.periods,
                sample_interval=inputs.sample_interval,
            ),
            target_frequency=1.0 / period,
            bound=inputs.a_max,
            snap_error=0.0,
        )
        for amp, period in QUARTET
    )

    start = time.perf_counter()
    results = execute_campaign(plant, tests, inputs)
    elapsed = time.perf_counter() - start

    print(f"drone altitude loop, {args.periods} periods per test "
          f"({elapsed:.2f} s wall time)\n")
    print(f"{'amplitude':>10} {'period':>8} {'dnl':>8} {'act sat':>8} "
          f"{'peak':>7}  scope")
    for (amp, period), result in zip(QUARTET, results):
        case = result.case
        lanes = run_lanes(plant, unit_period(case.shape, case.samples_per_period),
                          [case.amp_gain], case.periods)
        steps = len(lanes.logs[0].actuation)  # all of them, unless the run diverged
        peak = float(np.max(lanes.output[0, :steps]))
        scope = classify_scope(result, inputs.dnl_threshold)
        print(
            f"{amp:>8.1f} m {period:>6.0f} s {result.dnl:>8.4f} "
            f"{result.actuator_saturation_fraction:>7.1%} {peak:>6.2f} m  {scope.value}"
        )

    print(f"\ndnl threshold: {inputs.dnl_threshold}")
    print("note the 1.5 m / 10 s row: thrust at its limit part of the time, "
          "dnl still well under the threshold —\nsaturation alone is not "
          "aperiodicity; integrator windup under sustained saturation is.")

    small = estimate_bandwidth(results[:2], inputs.dnl_threshold)
    saturating = estimate_bandwidth([results[2]], inputs.dnl_threshold)
    print(f"\nbandwidth pooled over the two 0.6 m squares: {small.value:.3f} Hz")
    print(f"bandwidth from the 1.5 m / 10 s square alone: {saturating.value:.3f} Hz "
          "(lower: brief saturation already degrades tracking)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
