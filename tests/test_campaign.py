"""Amplitude-bound search, test generation, execution, repetition calibration."""
from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopstress import campaign, plants, records, spectral
from loopstress.campaign import (
    binary_search_upperbound,
    calibration_curve,
    derive_frequency_resolution,
    execute_campaign,
    generate_test_set,
    optimistic_amplitude_bound,
    pick_num_periods,
)
from loopstress.plants import run_plant
from loopstress.records import (
    AmplitudeBoundMap,
    BoundRefinementError,
    Component,
    RequiredInput,
    TestResult,
    TestSet,
    dc_servo_spec,
    dead_zone,
    drone_spec,
    quadratic_friction,
)
from loopstress.signals import ShapeKind, TestCase, render_reference, snap_time_gain, unit_period
from loopstress.spectral import (
    Spectrum,
    components,
    dft_amplitude,
    dnl_of_spectra,
    dof_of_spectrum,
    tiled_spectrum,
)

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


def test_bound_map_requires_a_probe_or_plant():
    with pytest.raises(ValueError, match="need either a plant or a probe"):
        optimistic_amplitude_bound(None, DEFAULT_INPUTS)


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


def grid_probe(levels):
    """Linear up to the bound ``levels(frequency)``: with ``a_max`` 8 and
    ``delta_a`` 0.5 the bisection lands on 2, 4, 5 or 6 exactly."""

    def probe(frequency, amplitude):
        return 0.05 if amplitude <= levels(frequency) else 0.4

    return probe


GRID_INPUTS = RequiredInput(f_min=1.0, f_max=16.0, a_max=8.0, delta_a=0.5)


@pytest.mark.parametrize(
    "mid_level, cap, expected",
    [
        # Bounds 6, 5, 2 at 1, 4 and 16 Hz: the wider gap (4, 16) is split.
        (5.0, 4, (1.0, 4.0, 8.0, 16.0)),
        # Bounds 6, 4, 2: equal gaps, so the lower pair (1, 4) is split.
        (4.0, 4, (1.0, 2.0, 4.0, 16.0)),
        # Room for no split of the round after the endpoints and 4 Hz.
        (4.0, 3, (1.0, 4.0, 16.0)),
    ],
)
def test_refinement_cap_splits_the_widest_gaps_that_fit(mid_level, cap, expected):
    def levels(f):
        return 6.0 if f < 3.0 else (mid_level if f < 6.0 else 2.0)

    searched = []

    def probe(f, a):
        if f not in searched:
            searched.append(f)
        return grid_probe(levels)(f, a)

    with pytest.raises(BoundRefinementError) as err:
        optimistic_amplitude_bound(None, GRID_INPUTS, probe=probe, max_frequencies=cap)
    partial = err.value.partial
    assert partial.frequencies == expected and len(partial.frequencies) == cap
    assert partial.bounds == tuple(levels(f) for f in expected)
    assert sorted(searched) == list(expected)  # nothing beyond the cap was searched


def one_split_at_a_time(inputs, probe):
    """The refinement before rounds: always split the pair of widest gap
    (ties to the lower frequency); returns (frequencies, bounds, unresolved,
    probes)."""
    count = [0]

    def counted(f, a):
        count[0] += 1
        return probe(f, a)

    bounds = {f: binary_search_upperbound(None, f, inputs, counted) for f in (inputs.f_min, inputs.f_max)}
    closed = set()
    while True:
        fs = sorted(bounds)
        gaps = [(abs(bounds[a] - bounds[b]), a, b) for a, b in zip(fs, fs[1:])
                if abs(bounds[a] - bounds[b]) > inputs.delta_a and (a, b) not in closed]
        if not gaps:
            return tuple(fs), tuple(bounds[f] for f in fs), tuple(sorted(closed)), count[0]
        _, a, b = max(gaps, key=lambda g: (g[0], -g[1]))
        mid = math.sqrt(a * b)
        if a < mid < b:
            bounds[mid] = binary_search_upperbound(None, mid, inputs, counted)
        else:
            closed.add((a, b))


@pytest.mark.parametrize(
    "inputs, probe, batched",
    [
        # A jump refines one pair a round.
        (RequiredInput(f_min=0.1, f_max=10.0, a_max=6.0, delta_a=0.5), two_level_probe, False),
        (GRID_INPUTS, grid_probe(lambda f: 6.0 if f < 3.0 else (5.0 if f < 6.0 else 2.0)), True),
        (DEFAULT_INPUTS, grid_probe(lambda f: 5.9 - 2.5 * math.log10(f) ** 2), True),
    ],
    ids=["jump", "grid", "smooth"],
)
def test_rounds_give_the_map_of_one_split_at_a_time(inputs, probe, batched):
    rounds = []
    bound_map = optimistic_amplitude_bound(
        None, inputs, probe=probe, progress=lambda *counts: rounds.append(counts)
    )
    got = (bound_map.frequencies, bound_map.bounds, bound_map.unresolved, bound_map.probes)
    assert got == one_split_at_a_time(inputs, probe)
    assert len(bound_map.frequencies) > 3
    # One progress call per round, with the map's size and probes so far.
    assert [r[0] for r in rounds] == list(range(1, len(rounds) + 1))
    assert rounds[0][1] == 2 and rounds[-1][1:] == (len(bound_map.frequencies), bound_map.probes)
    # One split a round would take a round per frequency after the first two.
    assert (len(rounds) < len(bound_map.frequencies) - 1) == batched


def real_bound_inputs():
    # The drone at 1 to 4 Hz on a 10 ms step: 25 to 100 samples per period,
    # so probes are short and one period step is a wide frequency step.
    return drone_spec(sample_interval=0.01), RequiredInput(
        f_min=1.0, f_max=4.0, a_max=6.0, delta_a=0.05, base_periods=2, sample_interval=0.01
    )


def test_bound_map_lies_on_the_snapped_period_grid():
    plant, inputs = real_bound_inputs()
    serial = optimistic_amplitude_bound(plant, inputs)

    def period(f):
        return snap_time_gain(f, inputs.sample_interval)

    periods = [period(f) for f in serial.frequencies]
    assert all(a < b for a, b in zip(periods, periods[1:]))  # no period repeats
    # A pair stays open only where its midpoint snaps onto an endpoint's period.
    assert serial.unresolved
    for f_lo, f_hi in serial.unresolved:
        assert period(math.sqrt(f_lo * f_hi)) in (period(f_lo), period(f_hi))
    # One search per frequency, of as many probes as it takes alone.
    sine = campaign._sine_probe(plant, inputs)
    probed = []

    def counted(f, amplitude):
        probed.append(f)
        return sine(f, amplitude)

    for f in serial.frequencies:
        binary_search_upperbound(plant, f, inputs, counted)
    assert serial.probes == len(probed)


@pytest.mark.parametrize("cap", [1, 0, -3])
def test_bound_rejects_a_cap_below_the_two_endpoints(cap):
    with pytest.raises(ValueError, match="max_frequencies must be at least 2"):
        optimistic_amplitude_bound(
            None, DEFAULT_INPUTS, probe=lambda f, a: 0.01, max_frequencies=cap
        )


# A plant sampled at 0.002 s would run the inputs' 0.001 s references at
# twice their time scale.
COARSE_DRONE = drone_spec(sample_interval=0.002)


def test_bound_search_rejects_mismatched_sampling():
    with pytest.raises(ValueError, match="sample intervals differ"):
        binary_search_upperbound(COARSE_DRONE, 1.0, DEFAULT_INPUTS)
    with pytest.raises(ValueError, match="sample intervals differ"):
        optimistic_amplitude_bound(COARSE_DRONE, DEFAULT_INPUTS)


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


def test_worker_count_does_not_change_results(monkeypatch):
    tests, inputs = small_test_set()
    serial = execute_campaign(drone_spec(), tests.tests, inputs, workers=1)
    monkeypatch.setattr(campaign, "_CHUNK_STEPS", 8_000)  # four chunks, so a pool
    parallel = execute_campaign(drone_spec(), tests.tests, inputs, workers=2)
    assert serial == parallel


def reference_run_one(plant, test, inputs):
    """One test through ``run_plant`` on its rendered reference, scored on
    its own: the reference's spectrum is the amplitude times the spectrum
    of the shape's unit period repeated as often (``tiled_spectrum``), the
    output's is its own ``dft_amplitude``."""
    case = test.case
    dt = case.sample_interval
    unit = tiled_spectrum(unit_period(case.shape, case.samples_per_period), case.periods, dt)
    reference = Spectrum(unit.frequencies, case.amp_gain * unit.amplitudes)
    comps = components(reference, inputs.rho)
    run = run_plant(plant, render_reference(case))
    if run.diverged:
        dnl, dof = math.inf, {}
    else:
        output = dft_amplitude(run.trace.output, dt)
        dnl = dnl_of_spectra(reference, output, inputs.rho)
        dof = dof_of_spectrum(comps, output) if dnl < inputs.dnl_threshold else {}
    return TestResult(
        test=test,
        dnl=dnl,
        components=tuple(
            Component(frequency=float(f), amplitude=float(a), dof=dof.get(float(f)))
            for f, a in zip(comps.frequencies, comps.amplitudes)
        ),
        actuator_saturation_fraction=run.log.actuator_saturation_fraction,
        sensor_saturation_fraction=run.log.sensor_saturation_fraction,
        deviation_mean=run.log.mean_deviation,
        diverged=run.diverged,
    )


PLANTS = [
    drone_spec(),
    dc_servo_spec(extra_blocks=(quadratic_friction(0.002),)),
    # Every test of the run stage diverges; calibration at 2 Hz diverges
    # in its third period.
    drone_spec(kp=-30.0, thrust_limit=0.0),
]
PLANT_IDS = ["drone", "servo-friction", "diverging"]


@pytest.mark.parametrize("plant", PLANTS, ids=PLANT_IDS)
def test_lane_chunks_and_scalar_chunks_score_like_run_plant(monkeypatch, plant):
    # Chunks whose blocks run as lanes of the compiled stepper, or lane by
    # lane on plants._simulate, each scored like one test at a time through
    # run_plant on _simulate.
    inputs = RequiredInput(
        f_min=0.5, f_max=2.0, a_max=1.0, delta_a=0.25, base_periods=1,
    )
    bound_map = AmplitudeBoundMap(
        frequencies=(0.5, 0.75, 1.0, 1.5, 2.0), bounds=(1.0, 0.9, 0.8, 0.7, 0.6)
    )
    tests = generate_test_set(
        bound_map, (ShapeKind.SQUARE, ShapeKind.SINE), inputs, seed=11
    ).tests
    monkeypatch.setattr(campaign, "_CHUNK_STEPS", 6000)
    assert len(campaign._chunks(tests)) > 3
    with monkeypatch.context() as m:
        m.setattr(plants, "load_kernel", lambda: None)
        expected = tuple(reference_run_one(plant, t, inputs) for t in tests)
    assert plants.load_kernel() is not None
    rows = record_output_rows(monkeypatch)
    for kernel in (plants.load_kernel, lambda: None):
        monkeypatch.setattr(plants, "load_kernel", kernel)
        for workers in (1, 2, 3):
            results = execute_campaign(plant, tests, inputs, workers=workers)
            assert results == expected
            assert repr(results) == repr(expected)  # the sign of zero, too
    # In this process (workers=1), no block of diverged runs asked for the
    # spectra of no outputs.
    assert rows and 0 not in rows


def record_output_rows(monkeypatch) -> list:
    """The row count of every ``dft_amplitude`` call the run stage makes
    from now on in this process."""
    rows = []
    dft_amplitude = spectral.dft_amplitude

    def recorded(samples, sample_interval):
        rows.append(len(np.atleast_2d(samples)))  # a 1-D series is one row
        return dft_amplitude(samples, sample_interval)

    monkeypatch.setattr(spectral, "dft_amplitude", recorded)
    return rows


def sine_tests(inputs, amplitudes, frequency=1.0):
    return [
        records.GeneratedTest(
            campaign._case(inputs, ShapeKind.SINE, frequency, amplitude), frequency, 2.0, 0.0
        )
        for amplitude in amplitudes
    ]


# A gain of 1e12 behind a dead zone of 1e10: a sine test does not move until
# its reference passes 0.01, and then it runs away within a few steps.  At
# amplitudes from 0.02 up the reference starts above 0.01, so the run moves
# in step 0 and diverges in step 1, the first step that may end a run;
# between 0.01 and 0.02 it diverges the later the nearer it is to 0.01.
EXPLOSIVE = drone_spec(kp=1e12, ki=0.0, thrust_limit=0.0, extra_blocks=(dead_zone(1e10),))


def test_a_block_holding_diverging_tests_scores_like_one_test_at_a_time(stepper, monkeypatch):
    # Positive feedback behind a dead zone: a command inside the dead zone
    # leaves the plant at rest, a larger one runs away.  So amplitudes
    # above 0.5 diverge and the ones below stay at zero output.
    plant = drone_spec(kp=-30.0, ki=0.0, thrust_limit=0.0, extra_blocks=(dead_zone(15.0),))
    inputs = RequiredInput(f_min=0.5, f_max=2.0, a_max=2.0, delta_a=0.25, base_periods=2)
    tests = [
        records.GeneratedTest(
            campaign._case(inputs, shape, 1.0, amplitude), 1.0, 2.0, 0.0
        )
        for shape, amplitude in [
            (ShapeKind.SQUARE, 0.2), (ShapeKind.SQUARE, 1.0), (ShapeKind.SINE, 0.3),
            (ShapeKind.SQUARE, 2.0), (ShapeKind.TRIANGLE, 0.1), (ShapeKind.SINE, 1.5),
        ]
    ]
    assert len(tests) * 8 * 2000 <= campaign._BLOCK_BYTES  # a block per run of one shape
    expected = [reference_run_one(plant, t, inputs) for t in tests]
    assert [r.diverged for r in expected] == [False, True, False, True, False, True]
    results = campaign._run_chunk(plant, inputs, tests)
    assert results == expected
    assert repr(results) == repr(expected)

    # One block of eleven lanes, two batches of the stepper's eight, that
    # diverge at different steps or not at all, and a lane at amplitude 0.
    amplitudes = [0.019, 0.5, 0.005, 0.0101, 2.0, 0.015, 0.0, 0.007, 0.012, 0.3, 0.0102]
    steps = [11, 2, 2000, 221, 2, 57, 2000, 2000, 119, 2, 208]
    tests = sine_tests(inputs, amplitudes)
    assert len(tests) * 8 * 2000 <= campaign._BLOCK_BYTES  # one block
    lanes = plants.run_lanes(EXPLOSIVE, unit_period(ShapeKind.SINE, 1000), amplitudes, 2)
    assert [len(log.actuation) for log in lanes.logs] == steps
    for k, test in enumerate(tests):
        run = run_plant(EXPLOSIVE, render_reference(test.case))
        log = lanes.logs[k]
        assert lanes.diverged[k] == run.diverged == (steps[k] < 2000)
        assert lanes.output[k, :steps[k]].tobytes() == run.trace.output.tobytes()
        for name in log._fields:
            assert getattr(log, name).tobytes() == getattr(run.log, name).tobytes(), name
    # An all-zero reference has no components, alone or in a block.
    zero = amplitudes.index(0.0)
    with pytest.raises(ValueError, match="all-zero series") as alone:
        reference_run_one(EXPLOSIVE, tests[zero], inputs)
    with pytest.raises(ValueError, match="all-zero series") as in_block:
        campaign._run_chunk(EXPLOSIVE, inputs, tests)
    assert str(in_block.value) == str(alone.value)
    del tests[zero]
    expected = [reference_run_one(EXPLOSIVE, t, inputs) for t in tests]
    rows = record_output_rows(monkeypatch)
    results = campaign._run_chunk(EXPLOSIVE, inputs, tests)
    assert results == expected
    assert repr(results) == repr(expected)
    # The unit period of the group's one shape, then the outputs of the two
    # runs that did not diverge.
    assert rows == [1, 2]

    # A block whose every run diverges, one of them in step 1, transforms
    # no output.
    tests = sine_tests(inputs, [0.0101, 0.5, 0.015])
    expected = [reference_run_one(EXPLOSIVE, t, inputs) for t in tests]
    assert all(r.diverged and r.dnl == math.inf for r in expected)
    del rows[:]
    results = campaign._run_chunk(EXPLOSIVE, inputs, tests)
    assert results == expected
    assert repr(results) == repr(expected)
    assert rows == [1]  # the unit period alone


def test_execute_rejects_tests_sampled_unlike_the_plant():
    # A test set loaded from a file may carry another sample interval than
    # the plant's; the plant would run its references at another time scale.
    coarse = RequiredInput(
        f_min=0.5, f_max=1.0, a_max=1.5, delta_a=0.5, base_periods=2, sample_interval=0.002,
    )
    bound_map = AmplitudeBoundMap(frequencies=(0.5, 1.0), bounds=(1.5, 1.0))
    tests = generate_test_set(bound_map, (ShapeKind.SQUARE,), coarse, seed=3).tests
    _, inputs = small_test_set()
    message = r"test and plant sample intervals differ \(0.002 vs 0.001\)"
    with pytest.raises(records.SamplingError, match=message):
        execute_campaign(drone_spec(), tests, inputs)


def test_execute_rejects_mismatched_sampling():
    # The references would run at twice their time scale.
    tests, inputs = small_test_set()
    with pytest.raises(ValueError, match="sample intervals differ"):
        execute_campaign(COARSE_DRONE, tests, inputs)


def test_chunks_cut_the_longest_tests_first_by_steps(monkeypatch):
    inputs = RequiredInput(f_min=0.05, f_max=2.0, a_max=1.0, delta_a=0.1, base_periods=3)
    bound_map = AmplitudeBoundMap(frequencies=(0.05, 2.0), bounds=(1.0, 0.5))
    tests = generate_test_set(bound_map, (ShapeKind.SQUARE,), inputs, seed=2).tests
    monkeypatch.setattr(campaign, "_CHUNK_STEPS", 100_000)
    chunks = campaign._chunks(tests)
    order = [i for chunk in chunks for i in chunk]
    assert sorted(order) == list(range(len(tests)))
    length = [t.case.periods * t.case.samples_per_period for t in tests]
    assert [length[i] for i in order] == sorted(length, reverse=True)
    # Every chunk but the last reaches the budget, and only its last test
    # takes it there.
    for chunk in chunks[:-1]:
        total = sum(length[i] for i in chunk)
        assert total - length[chunk[-1]] < 100_000 <= total


@given(
    lengths=st.lists(st.integers(min_value=2, max_value=5000), max_size=60),
    budget=st.integers(min_value=1, max_value=20_000),
)
@settings(max_examples=200, deadline=None)
def test_chunks_never_fall_under_the_budget_unless_all_tests_do(lengths, budget):
    tests = [SimpleNamespace(case=SimpleNamespace(periods=1, samples_per_period=n))
             for n in lengths]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(campaign, "_CHUNK_STEPS", budget)
        chunks = campaign._chunks(tests)
    assert sorted(i for chunk in chunks for i in chunk) == list(range(len(tests)))
    order = [lengths[i] for chunk in chunks for i in chunk]
    assert order == sorted(lengths, reverse=True)
    if sum(lengths) < budget:
        assert len(chunks) == (1 if lengths else 0)
    else:
        assert all(sum(lengths[i] for i in chunk) >= budget for chunk in chunks)


@pytest.mark.parametrize("workers, expected", [(2, 2), (3, 3), (4, 3), (8, 3)])
def test_run_pool_starts_no_more_workers_than_chunks(monkeypatch, workers, expected):
    import concurrent.futures

    sizes = []

    class RecordingPool:
        """Records the pool size and maps in-process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    tests, inputs = small_test_set()
    # 8,000 steps cut six tests of 4,000 steps and two of 2,000 into chunks
    # of 2, 2 and 4: the last two join the last full chunk.
    tests = tests.tests[:8]
    monkeypatch.setattr(campaign, "_CHUNK_STEPS", 8_000)
    assert [len(chunk) for chunk in campaign._chunks(tests)] == [2, 2, 4]
    results = execute_campaign(drone_spec(), tests, inputs, workers=workers)
    assert sizes == [expected]
    assert results == execute_campaign(drone_spec(), tests, inputs, workers=1)


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


@pytest.mark.parametrize("plant", PLANTS, ids=PLANT_IDS)
@pytest.mark.parametrize("shape", [ShapeKind.SINE, ShapeKind.TRIANGLE])
def test_calibration_curve_scores_each_prefix_of_run_plants_trace(stepper, plant, shape):
    # The oracle: run_plant on the rendered reference, each prefix of whole
    # periods scored against the tiled spectrum of the shape's unit period.
    inputs = RequiredInput(f_min=0.5, f_max=2.0, a_max=2.0, delta_a=0.25, base_periods=2)
    case = campaign._case(inputs, shape, inputs.f_max, inputs.a_max, 6)
    spp = case.samples_per_period
    output = run_plant(plant, render_reference(case)).trace.output
    expected = []
    for k in range(1, 7):
        if len(output) < k * spp:
            expected.append(math.inf)
            continue
        unit = tiled_spectrum(unit_period(shape, spp), k, 0.001)
        expected.append(dnl_of_spectra(
            Spectrum(unit.frequencies, case.amp_gain * unit.amplitudes),
            dft_amplitude(output[:k * spp], 0.001), inputs.rho,
        ))
    curve = calibration_curve(plant, inputs, max_periods=6, shape=shape)
    assert curve == tuple(expected)
    assert any(math.isinf(v) for v in curve) == (plant.controller.get("kp", 0.0) < 0.0)


@pytest.mark.parametrize("plant", PLANTS, ids=PLANT_IDS)
@pytest.mark.parametrize("shape", [ShapeKind.SINE, ShapeKind.TRIANGLE])
def test_calibration_curve_is_the_run_stages_dnl_per_repetition_count(stepper, plant, shape):
    # Entry k - 1 is execute_campaign's dnl of the test at (f_max, a_max)
    # that repeats its period k times, a diverging one's included.
    inputs = RequiredInput(f_min=0.5, f_max=2.0, a_max=2.0, delta_a=0.25, base_periods=2)
    tests = [
        records.GeneratedTest(
            campaign._case(inputs, shape, inputs.f_max, inputs.a_max, k), inputs.f_max, inputs.a_max, 0.0
        )
        for k in range(1, 7)
    ]
    curve = calibration_curve(plant, inputs, max_periods=6, shape=shape)
    assert curve == tuple(r.dnl for r in execute_campaign(plant, tests, inputs))
    assert any(math.isinf(v) for v in curve) == (plant.controller.get("kp", 0.0) < 0.0)


@pytest.mark.parametrize("plant", PLANTS, ids=PLANT_IDS)
def test_a_sine_probe_scores_like_the_run_stage_and_run_plant(stepper, plant):
    # The bound search's dnl at (f, A) is the run stage's dnl of the sine
    # test at (f, A), bit for bit, and that of run_plant's run of it.
    inputs = RequiredInput(f_min=0.5, f_max=2.0, a_max=2.0, delta_a=0.25, base_periods=2)
    probe = campaign._sine_probe(plant, inputs)
    points = [(1.0, 2.0), (1.0, 0.3), (0.7, 1.1), (2.0, 0.05), (1.0, 1.0)]
    tests = [sine_tests(inputs, [a], f)[0] for f, a in points]
    run = execute_campaign(plant, tests, inputs)
    dnls = [probe(f, a) for f, a in points]
    assert dnls == [r.dnl for r in run] == [reference_run_one(plant, t, inputs).dnl for t in tests]


def test_calibration_curve_needs_at_least_one_period():
    with pytest.raises(ValueError, match="max_periods must be at least 1"):
        calibration_curve(drone_spec(), DEFAULT_INPUTS, max_periods=0)


def test_calibration_curve_rejects_mismatched_sampling():
    with pytest.raises(ValueError, match="sample intervals differ"):
        calibration_curve(COARSE_DRONE, DEFAULT_INPUTS, max_periods=2)


@pytest.mark.parametrize("cls", [TestCase, TestSet, TestResult])
def test_library_classes_named_test_are_not_collected(cls):
    assert cls.__test__ is False
