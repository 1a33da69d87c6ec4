"""Acceptance gate: nine end-to-end criteria for the stress-testing framework.

Each test prints exactly one ``criterion N: PASS/FAIL`` line (outside the
capture, so it shows up in the live pytest stream) and then asserts the
same condition, so a failing criterion is visible both ways.
"""
from __future__ import annotations

import hashlib
import json
import math
import time

import numpy as np
import pytest

from loopstress.analysis import check_mr1, check_mr2, check_mr3, estimate_bandwidth
from loopstress.campaign import (
    binary_search_upperbound,
    calibration_curve,
    execute_campaign,
    generate_test_set,
    optimistic_amplitude_bound,
    pick_num_periods,
)
from loopstress import cli
from loopstress.records import GeneratedTest, RequiredInput, drone_spec
from loopstress.signals import ShapeKind, TestCase, render_reference, snap_time_gain
from loopstress.spectral import Trace, degree_of_nonlinearity, dft_amplitude, dof_profile, fa_map

from conftest import bandwidth_estimates, brute_force_spectrum, make_result


def announce(capfd, number, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} — {detail}"
    with capfd.disabled():
        print("\n" + line, flush=True)
    assert ok, line


def case_for(shape, amp, period_s, periods=10, dt=0.001):
    return TestCase(
        shape=shape,
        amp_gain=amp,
        time_gain=1.0 / period_s,
        periods=periods,
        sample_interval=dt,
    )


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------


QUARTET = (
    (0.6, 10.0),  # small and slow: comfortably within scope
    (0.6, 1.0),  # small and fast: stressed, still linear
    (1.5, 10.0),  # larger and slow: brief saturation, still linear
    (3.5, 5.0),  # large: deep saturation, outside the design scope
)

QUARTET_INPUTS = RequiredInput(
    f_min=0.1, f_max=2.0, a_max=6.0, delta_a=0.05, base_periods=10
)


@pytest.fixture(scope="module")
def quartet():
    """The four square stress tests on the frozen drone, with wall time."""
    tests = tuple(
        GeneratedTest(
            case=case_for(ShapeKind.SQUARE, amp, period),
            target_frequency=1.0 / period,
            bound=QUARTET_INPUTS.a_max,
            snap_error=0.0,
        )
        for amp, period in QUARTET
    )
    start = time.perf_counter()
    results = execute_campaign(drone_spec(), tests, QUARTET_INPUTS)
    elapsed = time.perf_counter() - start
    return results, elapsed


# ---------------------------------------------------------------------------
# criterion 1: square-wave stress quartet
# ---------------------------------------------------------------------------


def test_criterion_1_square_quartet_separates_the_design_scope(quartet, capfd):
    results, elapsed = quartet
    dnls = [r.dnl for r in results]
    sats = [r.actuator_saturation_fraction for r in results]
    threshold = QUARTET_INPUTS.dnl_threshold

    over = [i for i, d in enumerate(dnls) if d >= threshold]
    only_big_fails = over == [3]
    big_is_strictly_largest = all(dnls[3] > d for d in dnls[:3])
    saturating_yet_linear = sats[2] > 0.0 and dnls[2] < threshold
    fast_enough = elapsed < 10.0

    ok = only_big_fails and big_is_strictly_largest and saturating_yet_linear and fast_enough
    announce(
        capfd,
        1,
        ok,
        (
            f"dnl = {[round(d, 4) for d in dnls]} (threshold {threshold}), only the "
            f"(3.5, 5 s) test exceeds it and leads; (1.5, 10 s) saturates "
            f"{sats[2]:.1%} of steps yet stays linear; quartet ran in {elapsed:.2f} s"
        ),
    )


# ---------------------------------------------------------------------------
# criterion 2: bandwidth from pooled dof profiles
# ---------------------------------------------------------------------------


def test_criterion_2_bandwidth_estimate_and_saturation_shift(quartet, capfd):
    results, _ = quartet
    small = estimate_bandwidth(results[:2], QUARTET_INPUTS.dnl_threshold)
    saturating = estimate_bandwidth([results[2]], QUARTET_INPUTS.dnl_threshold)

    in_band = small.defined and 0.7 <= small.value <= 1.1
    shifted_down = saturating.defined and saturating.value < small.value

    ok = in_band and shifted_down
    announce(
        capfd,
        2,
        ok,
        (
            f"bandwidth from the two small squares = {small.value:.3f} Hz (within "
            f"[0.7, 1.1]); the briefly-saturating test alone estimates "
            f"{saturating.value:.3f} Hz, lower as expected"
        ),
    )


# ---------------------------------------------------------------------------
# criterion 3: desk-scale campaign under a simulation budget
# ---------------------------------------------------------------------------


def test_criterion_3_desk_campaign_spans_the_saturation_range(capfd):
    inputs = RequiredInput(f_min=0.1, f_max=0.138, a_max=6.0, delta_a=0.2, base_periods=3)
    plant = drone_spec()
    start = time.perf_counter()
    bound_map = optimistic_amplitude_bound(plant, inputs)
    tests = generate_test_set(bound_map, (ShapeKind.SQUARE,), inputs, seed=0)
    results = execute_campaign(plant, tests.tests, inputs)
    elapsed = time.perf_counter() - start

    total_simulations = bound_map.probes + len(results)
    sats = [r.actuator_saturation_fraction for r in results]
    lo, hi = min(sats), max(sats)

    within_budget = total_simulations <= 200
    spans_range = lo == 0.0 and hi >= 0.8
    fast_enough = elapsed < 300.0

    ok = within_budget and spans_range and fast_enough
    announce(
        capfd,
        3,
        ok,
        (
            f"{bound_map.probes} bound probes + {len(results)} tests = "
            f"{total_simulations} simulations (budget 200); actuator-saturation "
            f"fractions span [{lo:.3f}, {hi:.3f}] ⊇ [0, 0.8]; took {elapsed:.1f} s"
        ),
    )


# ---------------------------------------------------------------------------
# criterion 4: spectrum against the O(N^2) oracle and known square lines
# ---------------------------------------------------------------------------


def test_criterion_4_spectrum_matches_oracle_and_square_harmonics(capfd):
    rng = np.random.default_rng(2024)
    sizes = list(rng.integers(2, 1025, size=97)) + [4096, 4096, 4096]
    worst = 0.0
    for n in sizes:
        x = rng.normal(scale=3.0, size=int(n))
        spec = dft_amplitude(x, 0.001)
        _, oracle = brute_force_spectrum(x, 0.001)
        worst = max(worst, float(np.max(np.abs(spec.amplitudes - oracle))))
    oracle_ok = worst <= 1e-9

    case = TestCase(shape=ShapeKind.SQUARE, amp_gain=1.0, time_gain=1.0, periods=1, sample_interval=0.001)
    spec = dft_amplitude(render_reference(case), 0.001)
    harmonic_err = 0.0
    for k in (1, 3, 5, 7, 9):
        idx = int(np.argmin(np.abs(spec.frequencies - k)))
        ideal = 2.0 / (k * math.pi)
        harmonic_err = max(harmonic_err, abs(spec.amplitudes[idx] - ideal) / ideal)
    harmonics_ok = harmonic_err <= 0.01

    ok = oracle_ok and harmonics_ok
    announce(
        capfd,
        4,
        ok,
        (
            f"100 random signals (N up to 4096) match the direct-sum oracle within "
            f"{worst:.2e} (tolerance 1e-9); square harmonics 1..9 match 2/(k*pi) "
            f"within {harmonic_err:.2%} (tolerance 1%)"
        ),
    )


# ---------------------------------------------------------------------------
# criterion 5: amplitude-bound search against synthetic oracles
# ---------------------------------------------------------------------------


def test_criterion_5_bound_search_is_tight_frugal_and_terminates(capfd):
    inputs = RequiredInput(f_min=0.1, f_max=10.0, a_max=6.0, delta_a=0.05)
    probe_cap = math.ceil(math.log2(inputs.a_max / inputs.delta_a)) + 2

    rng = np.random.default_rng(7)
    thresholds = list(rng.uniform(inputs.delta_a * 1.5, inputs.a_max, size=20))
    thresholds += [0.01, inputs.a_max * 2.0]  # below resolution; never nonlinear
    max_err = 0.0
    max_probes = 0
    for theta in thresholds:
        count = [0]

        def probe(f, a, _theta=theta, _count=count):
            _count[0] += 1
            return 0.05 if a < _theta else 0.4

        bound = binary_search_upperbound(None, 1.0, inputs, probe=probe)
        max_probes = max(max_probes, count[0])
        max_err = max(max_err, abs(bound - min(theta, inputs.a_max)))
    monotone_ok = max_err <= inputs.delta_a and max_probes <= probe_cap

    # A bound envelope with a genuine discontinuity: refinement must close
    # every adjacent gap except pairs that have no representable geometric
    # midpoint left to probe (floats adjacent at the jump).
    two_level = RequiredInput(f_min=0.1, f_max=10.0, a_max=6.0, delta_a=0.5)

    def jump_probe(f, a):
        return 0.05 if a < (4.0 if f < 1.0 else 1.0) else 0.4

    bound_map = optimistic_amplitude_bound(None, two_level, probe=jump_probe)
    freqs = list(bound_map.frequencies)
    bounds = list(bound_map.bounds)
    unresolved = set(bound_map.unresolved)
    open_gaps = 0
    exemption_sound = True
    for a, b, ba, bb in zip(freqs, freqs[1:], bounds, bounds[1:]):
        if abs(bb - ba) <= two_level.delta_a:
            continue
        open_gaps += 1
        mid = math.sqrt(a * b)
        splittable = a < mid < b
        at_jump = abs(a - 1.0) < 1e-6
        if (a, b) not in unresolved or splittable or not at_jump:
            exemption_sound = False
    two_level_ok = exemption_sound and open_gaps == len(unresolved) and open_gaps >= 1

    ok = monotone_ok and two_level_ok
    announce(
        capfd,
        5,
        ok,
        (
            f"22 monotone oracles: bounds within {max_err:.3f} of the true threshold "
            f"(resolution 0.05) using ≤ {max_probes} probes (cap {probe_cap}); "
            f"two-level oracle: {len(freqs)} frequencies, every adjacent gap ≤ 0.5 "
            f"except {open_gaps} float-adjacent pair(s) pinned at the 1 Hz jump, "
            f"where no representable midpoint remains"
        ),
    )


# ---------------------------------------------------------------------------
# criterion 6: metamorphic checkers report exactly the injected violations
# ---------------------------------------------------------------------------


def _mr1_results(inverted):
    results = []
    for k in range(5):
        freq = 1.0 + 0.1 * k
        lo = 0.1 + 0.01 * k
        hi = lo - 0.001 if k in inverted else lo + 0.005
        results.append(make_result(amp=1.0, frequency=freq, dnl=lo))
        results.append(make_result(amp=2.0, frequency=freq, dnl=hi))
    return results


def _mr2_results(violating):
    fast, slow = [], []
    for k in range(5):
        fast_dof = 0.3 + 0.05 * k
        slow_dof = fast_dof + 0.1 if k in violating else fast_dof - 0.1
        fast.append((2.0 * (k + 1), 1.0, fast_dof))
        slow.append((float(k + 1), 1.0, slow_dof))
    return [
        make_result(frequency=2.0, dnl=0.01, components=fast),
        make_result(frequency=1.0, dnl=0.01, components=slow),
    ]


def _mr3_bandwidths(n_violations):
    if n_violations == 0:
        return bandwidth_estimates({"a": 1.0, "b": 1.05, "c": 0.95})
    if n_violations == 1:
        return bandwidth_estimates({"a": 1.0, "b": 2.0})
    return bandwidth_estimates({f"s{k}": (10.0 if k == 0 else 10.4) for k in range(6)})


def test_criterion_6_checkers_count_injected_violations_exactly(capfd):
    observed = {}
    for v, subset in ((0, set()), (1, {2}), (5, {0, 1, 2, 3, 4})):
        observed[("MR1", v)] = len(check_mr1(_mr1_results(subset)))
        observed[("MR2", v)] = len(check_mr2(_mr2_results(subset), dnl_threshold=0.15)[0])
        observed[("MR3", v)] = len(check_mr3(_mr3_bandwidths(v), epsilon=0.3 if v else 0.5)[0])
    ok = all(observed[(rel, v)] == v for rel in ("MR1", "MR2", "MR3") for v in (0, 1, 5))
    counts = {rel: [observed[(rel, v)] for v in (0, 1, 5)] for rel in ("MR1", "MR2", "MR3")}
    announce(
        capfd,
        6,
        ok,
        f"injected 0/1/5 violations per relation; reported {counts} — exact for all three checkers",
    )


# ---------------------------------------------------------------------------
# criterion 7: metric invariants over randomized signals
# ---------------------------------------------------------------------------


def test_criterion_7_metric_invariants_hold_on_randomized_signals(capfd):
    rng = np.random.default_rng(11)
    shapes = tuple(ShapeKind)
    worst_drift = 0.0
    worst_freq_dev = 0.0
    worst_amp_dev = 0.0
    dof_bound_ok = True
    dof_endpoints_exact = True
    dt = 0.001
    for _ in range(100):
        shape = shapes[rng.integers(len(shapes))]
        spp = int(rng.integers(8, 1200))
        periods = int(rng.integers(1, 5))
        amp = float(rng.uniform(0.1, 10.0))
        time_gain = 1.0 / (spp * dt)
        base = TestCase(shape=shape, amp_gain=amp, time_gain=time_gain, periods=1, sample_interval=dt)
        rep = TestCase(shape=shape, amp_gain=amp, time_gain=time_gain, periods=periods, sample_interval=dt)
        r1 = render_reference(base)
        rk = render_reference(rep)

        # (a) dnl is invariant under joint scaling of reference and output.
        y = rk + rng.normal(scale=0.3 * amp, size=rk.size)
        c = float(rng.uniform(0.01, 100.0))
        dnl_base = degree_of_nonlinearity(Trace(reference=rk, output=y, sample_interval=dt))
        dnl_scaled = degree_of_nonlinearity(Trace(reference=c * rk, output=c * y, sample_interval=dt))
        worst_drift = max(worst_drift, abs(dnl_scaled - dnl_base))

        # (b) repeating the reference leaves its component map unchanged.
        one = fa_map(r1, dt)
        many = fa_map(rk, dt)
        worst_freq_dev = max(
            worst_freq_dev,
            float(np.max(np.abs(np.asarray(one.frequencies) - np.asarray(many.frequencies)))),
        )
        worst_amp_dev = max(
            worst_amp_dev,
            float(np.max(np.abs(np.asarray(one.amplitudes) - np.asarray(many.amplitudes)))),
        )

        # (c) dof never exceeds 1 and hits the endpoints exactly.
        prof_random = dof_profile(Trace(reference=rk, output=y, sample_interval=dt))
        dof_bound_ok = dof_bound_ok and all(v <= 1.0 for v in prof_random.values())
        prof_self = dof_profile(Trace(reference=rk, output=rk.copy(), sample_interval=dt))
        prof_zero = dof_profile(Trace(reference=rk, output=np.zeros_like(rk), sample_interval=dt))
        dof_endpoints_exact = (
            dof_endpoints_exact
            and all(v == 0.0 for v in prof_self.values())
            and all(v == 1.0 for v in prof_zero.values())
        )

    ok = (
        worst_drift <= 1e-12
        and worst_freq_dev <= 1e-9
        and worst_amp_dev <= 1e-9
        and dof_bound_ok
        and dof_endpoints_exact
    )
    announce(
        capfd,
        7,
        ok,
        (
            f"100 randomized signals: joint-scaling dnl drift ≤ {worst_drift:.2e} "
            f"(tolerance 1e-12); repetition shifts component maps ≤ "
            f"{max(worst_freq_dev, worst_amp_dev):.2e} (tolerance 1e-9); dof stayed "
            f"≤ 1 with exact 0/1 endpoints for perfect/zero tracking"
        ),
    )


# ---------------------------------------------------------------------------
# criterion 8: repetition calibration on the drone
# ---------------------------------------------------------------------------


def test_criterion_8_calibration_prefix_shape_and_reproducibility(tmp_path, capfd):
    inputs = RequiredInput(f_min=0.1, f_max=2.0, a_max=6.0, delta_a=0.05, base_periods=5)
    curve = calibration_curve(drone_spec(), inputs, max_periods=10)
    one_period_linear = curve[0] < inputs.dnl_threshold
    crosses_by_four = max(curve[:4]) >= inputs.dnl_threshold
    chosen, crossed = pick_num_periods(curve, inputs.dnl_threshold, 10)

    cfg_path = tmp_path / "calib.json"
    cfg_path.write_text(
        json.dumps(
            {
                "f_min": 0.1,
                "f_max": 2.0,
                "a_max": 6.0,
                "delta_a": 0.05,
                "plant": {
                    "model": "drone_alt",
                    "blocks": [{"kind": "actuator_saturation", "lo": -2.0, "hi": 2.0}],
                },
            }
        )
    )
    rc1 = cli.main(["calibrate", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
    rc2 = cli.main(["calibrate", "--config", str(cfg_path), "--out", str(tmp_path / "b")])
    bytes_a = (tmp_path / "a" / cli.CALIBRATION_FILE).read_bytes()
    bytes_b = (tmp_path / "b" / cli.CALIBRATION_FILE).read_bytes()
    report = json.loads(bytes_a)

    ok = (
        one_period_linear
        and crosses_by_four
        and crossed
        and rc1 == rc2 == cli.EXIT_OK
        and bytes_a == bytes_b
        and report["chosen_periods"] == chosen
    )
    announce(
        capfd,
        8,
        ok,
        (
            f"harshest drone test: dnl {curve[0]:.3f} at one period (under 0.15), "
            f"{max(curve[:4]):.3f} within four (over 0.15); calibration picked "
            f"{chosen} periods and two command-line reruns produced byte-identical reports"
        ),
    )


# ---------------------------------------------------------------------------
# criterion 9: campaign artifacts are identical across worker counts
# ---------------------------------------------------------------------------


def test_criterion_9_worker_count_leaves_artifacts_byte_identical(tmp_path, capfd):
    cfg_path = tmp_path / "campaign.json"
    cfg_path.write_text(
        json.dumps(
            {
                "f_min": 0.5,
                "f_max": 1.0,
                "a_max": 1.5,
                "delta_a": 0.5,
                "base_periods": 2,
                "seed": 3,
                "shapes": ["square", "triangle"],
                "plant": {
                    "model": "drone_alt",
                    "blocks": [{"kind": "actuator_saturation", "lo": -2.0, "hi": 2.0}],
                },
            }
        )
    )
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    rc1 = cli.main(
        ["campaign", "--config", str(cfg_path), "--out", str(serial), "--workers", "1"]
    )
    rc2 = cli.main(
        ["campaign", "--config", str(cfg_path), "--out", str(parallel), "--workers", "2"]
    )
    artifacts = (
        cli.BOUNDS_FILE,
        cli.TESTS_FILE,
        cli.RESULTS_FILE,
        cli.MR_REPORT_FILE,
        cli.SCATTER_FILE,
        cli.DOF_FILE,
    )
    digests = {}
    for name in artifacts:
        digests[name] = (
            hashlib.sha256((serial / name).read_bytes()).hexdigest(),
            hashlib.sha256((parallel / name).read_bytes()).hexdigest(),
        )
    all_equal = all(a == b for a, b in digests.values())

    ok = rc1 == rc2 == cli.EXIT_OK and all_equal
    announce(
        capfd,
        9,
        ok,
        (
            f"same config and seed with 1 vs 2 workers: all {len(artifacts)} artifact "
            f"files have identical SHA-256 digests"
        ),
    )
