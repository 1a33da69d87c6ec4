"""Shape evaluation, reference rendering, and test-case validation."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopstress.signals import (
    ShapeKind,
    TestCase,
    eval_shape,
    render_reference,
    samples_per_period,
    snap_time_gain,
)

ALL_SHAPES = tuple(ShapeKind)

shapes = st.sampled_from(ALL_SHAPES)
# Dyadic phases are exactly representable, so periodicity identities hold
# bit-for-bit instead of within a tolerance.
dyadic_phases = st.integers(min_value=0, max_value=4095).map(lambda k: k / 4096.0)


# ---------------------------------------------------------------------------
# eval_shape: pinned values
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "shape, phase, expected",
    [
        (ShapeKind.SQUARE, 0.0, 0.0),
        (ShapeKind.SQUARE, 0.25, 0.0),
        (ShapeKind.SQUARE, 0.49, 0.0),
        (ShapeKind.SQUARE, 0.5, 1.0),
        (ShapeKind.SQUARE, 0.75, 1.0),
        (ShapeKind.SAWTOOTH, 0.0, 0.0),
        (ShapeKind.SAWTOOTH, 0.25, 0.25),
        (ShapeKind.SAWTOOTH, 0.75, 0.75),
        (ShapeKind.TRIANGLE, 0.0, 0.0),
        (ShapeKind.TRIANGLE, 0.25, 0.5),
        (ShapeKind.TRIANGLE, 0.5, 1.0),
        (ShapeKind.TRIANGLE, 0.75, 0.5),
        (ShapeKind.TRAPEZOID, 0.0, 0.0),
        (ShapeKind.TRAPEZOID, 0.125, 0.5),
        (ShapeKind.TRAPEZOID, 0.25, 1.0),
        (ShapeKind.TRAPEZOID, 0.375, 1.0),
        (ShapeKind.TRAPEZOID, 0.625, 0.5),
        (ShapeKind.TRAPEZOID, 0.75, 0.0),
        (ShapeKind.TRAPEZOID, 0.9, 0.0),
    ],
)
def test_eval_shape_pinned_values(shape, phase, expected):
    assert eval_shape(shape, phase) == pytest.approx(expected, abs=1e-12)


def test_eval_shape_sine_quarter_points():
    # Sine is offset to stay in [0, 1]: 0.5 + 0.5*sin(2*pi*p).
    assert eval_shape(ShapeKind.SINE, 0.0) == pytest.approx(0.5, abs=1e-12)
    assert eval_shape(ShapeKind.SINE, 0.25) == pytest.approx(1.0, abs=1e-12)
    assert eval_shape(ShapeKind.SINE, 0.5) == pytest.approx(0.5, abs=1e-12)
    assert eval_shape(ShapeKind.SINE, 0.75) == pytest.approx(0.0, abs=1e-12)


def test_eval_shape_scalar_returns_float():
    value = eval_shape(ShapeKind.TRIANGLE, 0.25)
    assert isinstance(value, float)


@pytest.mark.parametrize("phase", [1.0, -0.01, 1.5, -1.0, math.nan])
def test_eval_shape_rejects_phase_outside_unit_interval(phase):
    with pytest.raises(ValueError):
        eval_shape(ShapeKind.SQUARE, phase)


def test_eval_shape_rejects_array_with_bad_entry():
    phases = np.array([0.1, 0.5, 1.0])
    with pytest.raises(ValueError):
        eval_shape(ShapeKind.SINE, phases)


@given(shape=shapes, phase=dyadic_phases)
def test_eval_shape_vectorised_matches_scalar(shape, phase):
    scalar = eval_shape(shape, phase)
    vector = eval_shape(shape, np.array([phase, phase]))
    assert vector.shape == (2,)
    assert vector[0] == scalar
    assert vector[1] == scalar


@given(shape=shapes, phase=dyadic_phases)
def test_eval_shape_unit_periodicity_is_exact(shape, phase):
    # (phase + 1) % 1.0 is exact for dyadic phases, so wrapping one full
    # period must reproduce the same float.
    wrapped = (phase + 1.0) % 1.0
    assert eval_shape(shape, wrapped) == eval_shape(shape, phase)


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_eval_shape_spans_unit_range(shape):
    # A dense grid reaches within one grid step of both extremes (the
    # sawtooth attains its supremum only in the limit).
    grid = np.arange(8192) / 8192.0
    values = eval_shape(shape, grid)
    assert np.all(values >= 0.0)
    assert np.all(values <= 1.0)
    assert float(values.min()) <= 2.0 / 8192.0
    assert float(values.max()) >= 1.0 - 2.0 / 8192.0


def test_square_spends_half_period_at_each_level():
    grid = np.arange(1000) / 1000.0
    values = eval_shape(ShapeKind.SQUARE, grid)
    assert np.count_nonzero(values == 0.0) == 500
    assert np.count_nonzero(values == 1.0) == 500


def test_trapezoid_quarters():
    grid = np.arange(1000) / 1000.0
    values = eval_shape(ShapeKind.TRAPEZOID, grid)
    hold_high = values[(grid >= 0.25) & (grid < 0.5)]
    hold_low = values[(grid >= 0.75) & (grid < 1.0)]
    assert np.all(hold_high == 1.0)
    assert np.all(hold_low == 0.0)
    rise = values[grid < 0.25]
    fall = values[(grid >= 0.5) & (grid < 0.75)]
    assert np.all(np.diff(rise) > 0)
    assert np.all(np.diff(fall) < 0)


# ---------------------------------------------------------------------------
# samples_per_period / snap_time_gain
# ---------------------------------------------------------------------------


def test_samples_per_period_basic():
    assert samples_per_period(1.0, 0.001) == 1000
    assert samples_per_period(0.1, 0.01) == 1000
    assert samples_per_period(2.0, 0.001) == 500


def test_samples_per_period_rejects_non_integer_period():
    with pytest.raises(ValueError):
        samples_per_period(3.0, 0.001)  # 333.33 samples


def test_samples_per_period_rejects_too_few_samples():
    with pytest.raises(ValueError):
        samples_per_period(500.0, 0.001)  # 2 samples per period


@pytest.mark.parametrize("time_gain, dt", [(0.0, 0.001), (-1.0, 0.001), (1.0, 0.0), (1.0, -0.1)])
def test_samples_per_period_rejects_bad_arguments(time_gain, dt):
    with pytest.raises(ValueError):
        samples_per_period(time_gain, dt)


@given(frequency=st.floats(min_value=0.01, max_value=100.0, allow_nan=False))
@settings(max_examples=200)
def test_snap_time_gain_yields_integer_period(frequency):
    dt = 0.001
    snapped = snap_time_gain(frequency, dt)
    spp = samples_per_period(snapped, dt)  # must not raise
    assert spp >= 3
    # The snapped period differs from the requested one by under one sample.
    assert abs(1.0 / snapped - 1.0 / frequency) <= dt


def test_snap_time_gain_identity_when_already_integral():
    assert snap_time_gain(1.0, 0.001) == 1.0
    assert snap_time_gain(0.5, 0.001) == 0.5


def test_snap_time_gain_rejects_nonpositive_frequency():
    with pytest.raises(ValueError):
        snap_time_gain(0.0, 0.001)
    with pytest.raises(ValueError):
        snap_time_gain(-1.0, 0.001)


# ---------------------------------------------------------------------------
# TestCase validation
# ---------------------------------------------------------------------------


def test_case_accepts_zero_amplitude():
    case = TestCase(shape=ShapeKind.SINE, amp_gain=0.0, time_gain=1.0)
    assert case.amp_gain == 0.0


def test_case_properties():
    case = TestCase(
        shape=ShapeKind.SQUARE, amp_gain=0.6, time_gain=0.1, periods=4, sample_interval=0.01
    )
    assert case.samples_per_period == 1000
    assert case.duration == pytest.approx(40.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(amp_gain=-0.5, time_gain=1.0),
        dict(amp_gain=1.0, time_gain=0.0),
        dict(amp_gain=1.0, time_gain=-2.0),
        dict(amp_gain=1.0, time_gain=1.0, periods=0),
        dict(amp_gain=1.0, time_gain=1.0, periods=-1),
        dict(amp_gain=1.0, time_gain=1.0, sample_interval=0.0),
        dict(amp_gain=1.0, time_gain=3.0),  # non-integer samples per period
        dict(amp_gain=1.0, time_gain=600.0),  # period under three samples
        dict(amp_gain=math.nan, time_gain=1.0),
        dict(amp_gain=1.0, time_gain=math.inf),
    ],
)
def test_case_rejects_invalid_parameters(kwargs):
    with pytest.raises(ValueError):
        TestCase(shape=ShapeKind.SINE, **kwargs)


def test_case_is_immutable():
    case = TestCase(shape=ShapeKind.SINE, amp_gain=1.0, time_gain=1.0)
    with pytest.raises(Exception):
        case.amp_gain = 2.0  # type: ignore[misc]


# ---------------------------------------------------------------------------
# render_reference
# ---------------------------------------------------------------------------


def test_render_square_pinned_example():
    case = TestCase(
        shape=ShapeKind.SQUARE, amp_gain=0.6, time_gain=0.1, periods=1, sample_interval=0.01
    )
    ref = render_reference(case)
    assert ref.shape == (1000,)
    assert np.all(ref[:500] == 0.0)
    assert np.all(ref[500:] == 0.6)


def test_render_sine_matches_pointwise_formula():
    case = TestCase(
        shape=ShapeKind.SINE, amp_gain=2.0, time_gain=1.0, periods=3, sample_interval=0.001
    )
    ref = render_reference(case)
    assert ref.shape == (3000,)
    n = np.arange(3000)
    phase = (n % 1000) / 1000.0
    expected = 2.0 * (0.5 + 0.5 * np.sin(2.0 * np.pi * phase))
    np.testing.assert_allclose(ref, expected, atol=1e-9)


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_render_zero_amplitude_is_all_zero(shape):
    case = TestCase(shape=shape, amp_gain=0.0, time_gain=1.0, periods=2)
    assert np.all(render_reference(case) == 0.0)


@given(
    shape=shapes,
    spp=st.integers(min_value=4, max_value=400),
    periods=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=60, deadline=None)
def test_render_repetitions_are_bit_identical(shape, spp, periods):
    dt = 0.001
    case = TestCase(shape=shape, amp_gain=1.7, time_gain=1.0 / (spp * dt), periods=periods, sample_interval=dt)
    ref = render_reference(case)
    assert ref.size == spp * periods
    blocks = ref.reshape(periods, spp)
    for k in range(1, periods):
        assert np.array_equal(blocks[k], blocks[0])


@given(
    shape=shapes,
    spp=st.integers(min_value=3, max_value=2000),
    periods=st.integers(min_value=1, max_value=12),
    amp=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    dt=st.sampled_from((0.001, 0.01, 1e-4)),
)
@settings(max_examples=200, deadline=None)
def test_render_tiles_one_period_with_the_bits_of_the_sample_count_formula(
    shape, spp, periods, amp, dt
):
    case = TestCase(shape=shape, amp_gain=amp, time_gain=1.0 / (spp * dt), periods=periods,
                    sample_interval=dt)
    spp = case.samples_per_period
    n = np.arange(periods * spp)
    expected = amp * eval_shape(shape, (n % spp) / spp)
    assert render_reference(case).tobytes() == expected.tobytes()


@given(shape=shapes, exponent=st.integers(min_value=-3, max_value=3))
@settings(max_examples=40, deadline=None)
def test_render_amplitude_scaling_exact_for_power_of_two(shape, exponent):
    # Scaling by a power of two only shifts exponents, so the identity
    # render(c * A) == c * render(A) holds bit-for-bit.
    c = 2.0 ** exponent
    base = TestCase(shape=shape, amp_gain=1.3, time_gain=1.0, periods=2)
    scaled = TestCase(shape=shape, amp_gain=c * 1.3, time_gain=1.0, periods=2)
    assert np.array_equal(render_reference(scaled), c * render_reference(base))


@given(shape=shapes, c=st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_render_amplitude_scaling_general(shape, c):
    base = TestCase(shape=shape, amp_gain=1.0, time_gain=1.0, periods=1)
    scaled = TestCase(shape=shape, amp_gain=c, time_gain=1.0, periods=1)
    np.testing.assert_allclose(
        render_reference(scaled), c * render_reference(base), rtol=1e-12, atol=0.0
    )


@given(shape=shapes)
@settings(max_examples=20, deadline=None)
def test_render_time_scaling_subsamples_exactly(shape):
    # Doubling the period at fixed dt doubles samples per period; every other
    # sample of the slow rendering hits exactly the phases of the fast one.
    dt = 0.001
    fast = TestCase(shape=shape, amp_gain=2.0, time_gain=2.0, periods=3, sample_interval=dt)
    slow = TestCase(shape=shape, amp_gain=2.0, time_gain=1.0, periods=3, sample_interval=dt)
    r_fast = render_reference(fast)
    r_slow = render_reference(slow)
    assert np.array_equal(r_slow[::2], r_fast)


def test_render_peak_approaches_amp_gain():
    for shape in ALL_SHAPES:
        case = TestCase(shape=shape, amp_gain=3.25, time_gain=1.0, periods=1)
        ref = render_reference(case)
        spp = case.samples_per_period
        assert 3.25 * (1.0 - 2.0 / spp) <= float(ref.max()) <= 3.25 * (1.0 + 1e-12)
        assert 0.0 <= float(ref.min()) <= 3.25 * 2.0 / spp
