"""Amplitude-bound search, test generation, execution, repetition calibration."""
from __future__ import annotations

import math

import numpy as np
import pytest

from loopstress.campaign import (
    AmplitudeBoundMap,
    BoundRefinementError,
    RequiredInput,
    TestResult,
    TestSet,
    binary_search_upperbound,
    calibration_curve,
    choose_num_periods,
    derive_frequency_resolution,
    execute_campaign,
    generate_test_set,
    optimistic_amplitude_bound,
    pick_num_periods,
)
from loopstress.plants import drone_spec
from loopstress.signals import ShapeKind, TestCase

DEFAULT_INPUTS = RequiredInput(f_min=0.1, f_max=2.0, a_max=6.0, delta_a=0.05)


def step_probe(threshold):
    """Amplitude-monotone oracle: linear strictly below the threshold."""

    def probe(frequency, amplitude):
        return 0.05 if amplitude < threshold else 0.4

    return probe


def two_level_probe(frequency, amplitude):
    """Frequency-dependent step: generous plateau below 1 Hz, tight above."""
    threshold = 4.0 if frequency < 1.0 else 1.0
    return 0.05 if amplitude < threshold else 0.4


# ---------------------------------------------------------------------------
# RequiredInput validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(f_min=0.0, f_max=1.0, a_max=1.0, delta_a=0.1),
        dict(f_min=1.0, f_max=0.5, a_max=1.0, delta_a=0.1),
        dict(f_min=0.1, f_max=1.0, a_max=0.0, delta_a=0.1),
        dict(f_min=0.1, f_max=1.0, a_max=1.0, delta_a=0.0),
        dict(f_min=0.1, f_max=1.0, a_max=1.0, delta_a=2.0),
        dict(f_min=0.1, f_max=1.0, a_max=1.0, delta_a=0.1, dnl_threshold=0.0),
        dict(f_min=0.1, f_max=1.0, a_max=1.0, delta_a=0.1, rho=1.0),
        dict(f_min=0.1, f_max=1.0, a_max=1.0, delta_a=0.1, base_periods=0),
        dict(f_min=0.1, f_max=1.0, a_max=1.0, delta_a=0.1, sample_interval=0.0),
    ],
)
def test_required_input_rejects_inconsistent_values(kwargs):
    with pytest.raises(ValueError):
        RequiredInput(**kwargs)


# ---------------------------------------------------------------------------
# binary_search_upperbound
# ---------------------------------------------------------------------------


def test_bound_search_brackets_step_threshold():
    probes = []

    def probe(f, a):
        probes.append(a)
        return step_probe(2.0)(f, a)

    bound = binary_search_upperbound(None, 1.0, DEFAULT_INPUTS, probe=probe)
    assert 2.0 - 0.05 <= bound < 2.0
    assert len(probes) <= math.ceil(math.log2(6.0 / 0.05)) + 2
    # The first probe goes straight to the ceiling.
    assert probes[0] == 6.0


def test_bound_search_returns_ceiling_when_linear_everywhere():
    probes = []

    def probe(f, a):
        probes.append(a)
        return 0.01

    bound = binary_search_upperbound(None, 0.5, DEFAULT_INPUTS, probe=probe)
    assert bound == 6.0
    assert len(probes) == 1


def test_bound_search_fallback_when_threshold_below_resolution():
    # Nothing above 0.01 passes; the search cannot certify a passing
    # amplitude at resolution 0.05 and falls back to the smallest failing
    # probe, which still lands within delta_a of the true threshold.
    bound = binary_search_upperbound(None, 1.0, DEFAULT_INPUTS, probe=step_probe(0.01))
    assert 0.01 < bound <= 0.01 + 0.05


@pytest.mark.parametrize("theta", [0.3, 1.0, 2.5, 5.9])
def test_bound_search_always_lands_within_resolution(theta):
    bound = binary_search_upperbound(None, 1.0, DEFAULT_INPUTS, probe=step_probe(theta))
    assert theta - 0.05 <= bound <= theta + 0.05


def test_bound_search_requires_a_probe_or_plant():
    with pytest.raises(ValueError):
        binary_search_upperbound(None, 1.0, DEFAULT_INPUTS)


# ---------------------------------------------------------------------------
# optimistic_amplitude_bound
# ---------------------------------------------------------------------------


def test_flat_linear_plant_needs_only_the_endpoints():
    bound_map = optimistic_amplitude_bound(None, DEFAULT_INPUTS, probe=lambda f, a: 0.01)
    assert list(bound_map.frequencies) == [0.1, 2.0]
    assert list(bound_map.bounds) == [6.0, 6.0]
    assert bound_map.probes == 2
    assert bound_map.unresolved == ()


def test_two_level_oracle_refines_until_gaps_close():
    inputs = RequiredInput(f_min=0.1, f_max=10.0, a_max=6.0, delta_a=0.5)
    bound_map = optimistic_amplitude_bound(None, inputs, probe=two_level_probe)
    freqs = np.asarray(bound_map.frequencies)
    bounds = np.asarray(bound_map.bounds)
    assert np.all(np.diff(freqs) > 0)
    assert freqs[0] == inputs.f_min and freqs[-1] == inputs.f_max
    unresolved = set(bound_map.unresolved)
    for i in range(len(freqs) - 1):
        gap = abs(bounds[i + 1] - bounds[i])
        pair = (freqs[i], freqs[i + 1])
        if gap > inputs.delta_a:
            # Only pairs with no representable geometric midpoint may stay
            # open, and they cluster at the true discontinuity (1 Hz).
            assert pair in unresolved
            mid = math.sqrt(pair[0] * pair[1])
            assert not (pair[0] < mid < pair[1])
            assert abs(pair[0] - 1.0) < 1e-6
    assert len(unresolved) >= 1


def test_refinement_cap_raises_with_partial_map():
    inputs = RequiredInput(f_min=0.1, f_max=10.0, a_max=6.0, delta_a=0.5)
    with pytest.raises(BoundRefinementError) as err:
        optimistic_amplitude_bound(None, inputs, probe=two_level_probe, max_frequencies=4)
    partial = err.value.partial
    assert isinstance(partial, AmplitudeBoundMap)
    assert len(partial.frequencies) >= 2


def test_bound_map_interpolation_clamps_to_range():
    bound_map = AmplitudeBoundMap(frequencies=(0.5, 1.0, 2.0), bounds=(4.0, 2.0, 1.0))
    assert bound_map.interpolate(0.75) == pytest.approx(3.0)
    assert bound_map.interpolate(0.1) == 4.0  # below range clamps
    assert bound_map.interpolate(9.0) == 1.0  # above range clamps


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(frequencies=(1.0,), bounds=(2.0,)),
        dict(frequencies=(1.0, 0.5), bounds=(2.0, 2.0)),
        dict(frequencies=(0.5, 1.0), bounds=(2.0,)),
        dict(frequencies=(0.5, 1.0), bounds=(2.0, 0.0)),
    ],
)
def test_bound_map_rejects_malformed_tables(kwargs):
    with pytest.raises(ValueError):
        AmplitudeBoundMap(**kwargs)


# ---------------------------------------------------------------------------
# derive_frequency_resolution
# ---------------------------------------------------------------------------


def test_frequency_resolution_two_point_map():
    bound_map = AmplitudeBoundMap(frequencies=(0.1, 2.0), bounds=(1.0, 1.0))
    assert derive_frequency_resolution(bound_map) == pytest.approx(1.9)


def test_frequency_resolution_is_mean_gap():
    bound_map = AmplitudeBoundMap(frequencies=(0.1, 0.5, 1.0, 2.0), bounds=(1.0, 1.0, 1.0, 1.0))
    assert derive_frequency_resolution(bound_map) == pytest.approx(1.9 / 3.0)


# ---------------------------------------------------------------------------
# generate_test_set
# ---------------------------------------------------------------------------


def flat_map(f_min=0.5, f_max=1.0, bound=1.0):
    return AmplitudeBoundMap(frequencies=(f_min, f_max), bounds=(bound, bound))


def test_generation_counts_follow_bound_over_resolution():
    inputs = RequiredInput(f_min=0.5, f_max=1.0, a_max=1.0, delta_a=0.25, base_periods=2)
    tests = generate_test_set(flat_map(), (ShapeKind.SQUARE, ShapeKind.TRIANGLE), inputs, seed=1)
    # Grid: 0.5, 1.0 (resolution 0.5); ceil(1.0/0.25) = 4 amplitudes per
    # shape and frequency; 2 shapes * 2 frequencies * 4 = 16 tests.
    assert len(tests.tests) == 16
    per_key = {}
    for t in tests.tests:
        key = (t.case.shape, t.target_frequency)
        per_key[key] = per_key.get(key, 0) + 1
    assert set(per_key.values()) == {4}
    assert tests.frequency_step == pytest.approx(0.5)
    assert tests.seed == 1


def test_generated_amplitudes_respect_bounds():
    inputs = RequiredInput(f_min=0.5, f_max=1.0, a_max=2.0, delta_a=0.25, base_periods=2)
    tests = generate_test_set(flat_map(bound=1.5), (ShapeKind.SAWTOOTH,), inputs, seed=7)
    for t in tests.tests:
        assert 0.0 < t.case.amp_gain <= 1.5 + 1e-12
        assert t.bound == pytest.approx(1.5)
        assert inputs.f_min <= t.target_frequency <= inputs.f_max + 1e-12


def test_generated_cases_snap_to_sample_grid():
    inputs = RequiredInput(f_min=0.3, f_max=0.9, a_max=1.0, delta_a=0.5, base_periods=3)
    bound_map = AmplitudeBoundMap(frequencies=(0.3, 0.9), bounds=(1.0, 1.0))
    tests = generate_test_set(bound_map, (ShapeKind.SINE,), inputs, seed=0)
    for t in tests.tests:
        case = t.case
        assert case.periods == 3
        spp = case.samples_per_period  # raises if not on the grid
        assert spp >= 3
        assert abs(1.0 / case.time_gain - 1.0 / t.target_frequency) <= inputs.sample_interval + 1e-12
        assert t.snap_error == pytest.approx(abs(case.time_gain - t.target_frequency), abs=1e-12)


def test_generation_is_deterministic_per_seed():
    inputs = RequiredInput(f_min=0.5, f_max=1.0, a_max=1.0, delta_a=0.25, base_periods=2)
    a = generate_test_set(flat_map(), (ShapeKind.SQUARE,), inputs, seed=11)
    b = generate_test_set(flat_map(), (ShapeKind.SQUARE,), inputs, seed=11)
    c = generate_test_set(flat_map(), (ShapeKind.SQUARE,), inputs, seed=12)
    assert a == b
    assert a != c


def test_generation_rejects_bad_shape_lists():
    inputs = RequiredInput(f_min=0.5, f_max=1.0, a_max=1.0, delta_a=0.25)
    with pytest.raises(ValueError):
        generate_test_set(flat_map(), (), inputs)
    with pytest.raises(ValueError):
        generate_test_set(flat_map(), (ShapeKind.SQUARE, ShapeKind.SQUARE), inputs)


def test_generation_rejects_bad_beta_parameters():
    inputs = RequiredInput(f_min=0.5, f_max=1.0, a_max=1.0, delta_a=0.25)
    with pytest.raises(ValueError):
        generate_test_set(flat_map(), (ShapeKind.SQUARE,), inputs, beta_params=(0.0, 1.0))


# ---------------------------------------------------------------------------
# execute_campaign
# ---------------------------------------------------------------------------


def small_test_set(seed=3):
    inputs = RequiredInput(
        f_min=0.5, f_max=1.0, a_max=1.5, delta_a=0.5, base_periods=2
    )
    bound_map = AmplitudeBoundMap(frequencies=(0.5, 1.0), bounds=(1.5, 1.0))
    tests = generate_test_set(bound_map, (ShapeKind.SQUARE, ShapeKind.TRIANGLE), inputs, seed=seed)
    return tests, inputs


def test_execute_empty_set_returns_empty_tuple():
    _, inputs = small_test_set()
    assert execute_campaign(drone_spec(), (), inputs) == ()


def test_execute_preserves_test_order():
    tests, inputs = small_test_set()
    results = execute_campaign(drone_spec(), tests.tests, inputs)
    assert len(results) == len(tests.tests)
    for t, r in zip(tests.tests, results):
        assert r.test == t
        assert r.case == t.case


def test_linear_test_gets_component_profile():
    tests, inputs = small_test_set()
    results = execute_campaign(drone_spec(), tests.tests, inputs)
    linear = [r for r in results if r.dnl < inputs.dnl_threshold]
    assert linear  # the low-amplitude draws track well
    for r in linear:
        assert r.components
        assert all(c.dof is not None for c in r.components)
        assert all(c.dof <= 1.0 for c in r.components)


def test_nonlinear_test_dof_is_withheld():
    inputs = RequiredInput(f_min=0.1, f_max=1.0, a_max=4.0, delta_a=0.5, base_periods=3)
    bound_map = AmplitudeBoundMap(frequencies=(0.1, 1.0), bounds=(4.0, 4.0))
    tests = generate_test_set(bound_map, (ShapeKind.SQUARE,), inputs, seed=5)
    results = execute_campaign(drone_spec(), tests.tests, inputs)
    stressed = [r for r in results if r.dnl >= inputs.dnl_threshold]
    assert stressed  # amplitudes up to 4 drive the drone outside its scope
    for r in stressed:
        assert all(c.dof is None for c in r.components)


def test_diverged_run_reports_infinite_dnl():
    tests, inputs = small_test_set()
    unstable = drone_spec(kp=-30.0, thrust_limit=0.0)
    results = execute_campaign(unstable, tests.tests[:2], inputs)
    for r in results:
        assert r.diverged
        assert math.isinf(r.dnl)
        # The reference component list survives, but tracking quality is
        # meaningless for a diverged run, so every dof is withheld.
        assert r.components
        assert all(c.dof is None for c in r.components)


def test_worker_count_does_not_change_results():
    tests, inputs = small_test_set()
    serial = execute_campaign(drone_spec(), tests.tests, inputs, workers=1)
    parallel = execute_campaign(drone_spec(), tests.tests, inputs, workers=2)
    assert serial == parallel


def test_execute_rejects_nonpositive_workers():
    tests, inputs = small_test_set()
    with pytest.raises(ValueError):
        execute_campaign(drone_spec(), tests.tests, inputs, workers=0)


# ---------------------------------------------------------------------------
# repetition calibration
# ---------------------------------------------------------------------------


def test_pick_num_periods_first_crossing_plus_one():
    assert pick_num_periods((0.1, 0.2, 0.3), 0.15, 3) == (3, True)
    assert pick_num_periods((0.1, 0.2), 0.15, 2) == (2, True)
    assert pick_num_periods((0.05, 0.08, 0.1), 0.15, 3) == (3, False)
    curve = (0.01, 0.02, 0.03, 0.04, 0.05, 0.2, 0.2, 0.2, 0.2, 0.2)
    assert pick_num_periods(curve, 0.15, 10) == (7, True)
    curve = (0.04, 0.19, 0.28, 0.35, 0.40, 0.44, 0.46, 0.47, 0.47, 0.46)
    assert pick_num_periods(curve, 0.15, 10) == (3, True)


def test_pick_num_periods_handles_infinite_entries():
    assert pick_num_periods((math.inf, math.inf), 0.15, 2) == (2, True)


def test_calibration_curve_for_drone_crosses_threshold():
    inputs = RequiredInput(f_min=0.1, f_max=2.0, a_max=6.0, delta_a=0.05, base_periods=5)
    curve = calibration_curve(drone_spec(), inputs, max_periods=6)
    assert len(curve) == 6
    assert curve[0] < 0.15  # one period hides the windup wander
    assert max(curve[:4]) >= 0.15  # a few repetitions expose it
    chosen = choose_num_periods(drone_spec(), inputs, max_periods=6)
    assert 1 <= chosen <= 6
    assert chosen == pick_num_periods(curve, inputs.dnl_threshold, 6)[0]


@pytest.mark.parametrize("cls", [TestCase, TestSet, TestResult])
def test_library_classes_named_test_are_not_collected(cls):
    assert cls.__test__ is False
