"""Amplitude spectra, frequency-component maps, and nonlinearity metrics."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopstress.signals import ShapeKind, TestCase, render_reference, unit_period
from loopstress.spectral import (
    ComponentSet,
    Spectrum,
    Trace,
    components,
    degree_of_nonlinearity,
    dft_amplitude,
    dnl_of_spectra,
    dof_of_spectrum,
    dof_profile,
    fa_map,
    tiled_spectrum,
)

from conftest import brute_force_spectrum

random_signals = st.integers(min_value=2, max_value=512).flatmap(
    lambda n: st.lists(
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        min_size=n,
        max_size=n,
    )
)


def sine_trace(amp=2.0, periods=3, dt=0.001):
    case = TestCase(
        shape=ShapeKind.SINE, amp_gain=amp, time_gain=1.0, periods=periods, sample_interval=dt
    )
    return render_reference(case)


# ---------------------------------------------------------------------------
# dft_amplitude
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [10, 11, 50, 51])
def test_constant_series_concentrates_at_zero_frequency(n):
    spec = dft_amplitude(np.full(n, 3.0), 0.01)
    assert spec.amplitudes[0] == pytest.approx(3.0, abs=1e-12)
    assert np.all(spec.amplitudes[1:] < 1e-12)
    assert spec.frequencies[0] == 0.0


def test_pure_tone_recovers_unit_amplitude():
    t = np.arange(200) * 0.01
    spec = dft_amplitude(np.sin(2.0 * np.pi * 5.0 * t), 0.01)
    idx = int(np.argmin(np.abs(spec.frequencies - 5.0)))
    assert spec.frequencies[idx] == pytest.approx(5.0)
    assert spec.amplitudes[idx] == pytest.approx(1.0, abs=1e-9)
    others = np.delete(spec.amplitudes, idx)
    assert np.all(others < 1e-9)


def test_frequency_axis_spacing():
    spec = dft_amplitude(np.ones(100), 0.02)
    assert spec.frequencies.size == 51
    np.testing.assert_allclose(np.diff(spec.frequencies), 1.0 / (100 * 0.02))


def test_square_wave_odd_harmonics():
    case = TestCase(
        shape=ShapeKind.SQUARE, amp_gain=1.0, time_gain=1.0, periods=1, sample_interval=0.001
    )
    spec = dft_amplitude(render_reference(case), 0.001)

    def amp_at(f):
        return spec.amplitudes[int(np.argmin(np.abs(spec.frequencies - f)))]

    assert amp_at(0.0) == pytest.approx(0.5, abs=1e-9)
    assert amp_at(1.0) == pytest.approx(2.0 / math.pi, rel=1e-2)
    assert amp_at(3.0) == pytest.approx(2.0 / (3.0 * math.pi), rel=1e-2)
    assert amp_at(2.0) < 1e-9  # even harmonics vanish


@given(samples=random_signals)
@settings(max_examples=40, deadline=None)
def test_matches_brute_force_oracle(samples):
    x = np.asarray(samples)
    spec = dft_amplitude(x, 0.001)
    freqs, amps = brute_force_spectrum(x, 0.001)
    np.testing.assert_allclose(spec.frequencies, freqs, rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(spec.amplitudes, amps, rtol=0.0, atol=1e-9)


@given(samples=random_signals)
@settings(max_examples=40, deadline=None)
def test_parseval_energy_identity(samples):
    # With this normalisation, sum(x^2) = N * (a_0^2 + a_nyq^2 + sum interior a_k^2 / 2).
    x = np.asarray(samples)
    n = x.size
    spec = dft_amplitude(x, 0.001)
    a = spec.amplitudes
    energy = a[0] ** 2
    if n % 2 == 0:
        energy += a[-1] ** 2
        energy += np.sum(a[1:-1] ** 2) / 2.0
    else:
        energy += np.sum(a[1:] ** 2) / 2.0
    lhs = float(np.sum(x**2))
    assert lhs == pytest.approx(n * energy, rel=1e-9, abs=1e-9)


@given(samples=random_signals, c=st.floats(min_value=0.01, max_value=100.0, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_amplitude_spectrum_is_homogeneous(samples, c):
    x = np.asarray(samples)
    base = dft_amplitude(x, 0.001).amplitudes
    scaled = dft_amplitude(c * x, 0.001).amplitudes
    np.testing.assert_allclose(scaled, c * base, rtol=1e-9, atol=1e-12)


PRIMES = (2, 3, 5, 7, 11, 13, 97, 101, 1009, 4099)


@given(
    n=st.one_of(
        st.integers(min_value=1, max_value=2000).map(lambda k: 2 * k),  # even
        st.integers(min_value=1, max_value=2000).map(lambda k: 2 * k + 1),  # odd
        st.sampled_from(PRIMES),
    ),
    rows=st.integers(min_value=1, max_value=20),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scale=st.sampled_from((1e-6, 1.0, 1e6)),
    dt=st.sampled_from((0.001, 0.01)),
)
@settings(max_examples=150, deadline=None)
def test_dft_amplitude_of_a_block_equals_its_rows_bit_for_bit(n, rows, seed, scale, dt):
    block = scale * np.random.default_rng(seed).standard_normal((rows, n))
    spectra = dft_amplitude(block, dt)
    assert spectra.amplitudes.shape == (rows, n // 2 + 1)
    for row, amps in zip(block, spectra.amplitudes):
        alone = dft_amplitude(row, dt)
        assert amps.tobytes() == alone.amplitudes.tobytes()
        assert spectra.frequencies.tobytes() == alone.frequencies.tobytes()


def test_dft_amplitude_of_strided_rows_equals_the_rows():
    # A column slice of a wider array is not contiguous.
    wide = np.random.default_rng(5).standard_normal((4, 1201))
    block = wide[:, 1:]
    spectra = dft_amplitude(block, 0.001)
    for row, amps in zip(block, spectra.amplitudes):
        assert amps.tobytes() == dft_amplitude(row, 0.001).amplitudes.tobytes()


@pytest.mark.parametrize(
    "samples, dt",
    [
        (np.array([]), 0.001),
        (np.array([1.0]), 0.001),
        (np.ones(10), 0.0),
        (np.ones(10), -0.1),
        (np.ones((2, 5, 2)), 0.001),  # a block of rows is 2-D
        (np.ones((5, 1)), 0.001),  # rows of one sample
        (np.ones((0, 4)), 0.001),  # no rows
    ],
)
def test_dft_amplitude_rejects_degenerate_input(samples, dt):
    with pytest.raises(ValueError):
        dft_amplitude(samples, dt)


# ---------------------------------------------------------------------------
# fa_map
# ---------------------------------------------------------------------------


def test_fa_map_pure_sinusoid_single_component():
    t = np.arange(1000) * 0.001
    comps = fa_map(np.sin(2.0 * np.pi * 5.0 * t), 0.001)
    assert len(comps) == 1
    assert comps.frequencies[0] == pytest.approx(5.0)
    assert comps.amplitudes[0] == pytest.approx(1.0, abs=1e-9)


def test_fa_map_square_reference_components():
    case = TestCase(
        shape=ShapeKind.SQUARE, amp_gain=1.0, time_gain=1.0, periods=1, sample_interval=0.001
    )
    comps = fa_map(render_reference(case), 0.001)
    # Mean plus odd harmonics above one tenth of the strongest line.
    np.testing.assert_allclose(comps.frequencies, [0.0, 1.0, 3.0, 5.0, 7.0, 9.0])
    assert comps.amplitudes[0] == pytest.approx(0.5, abs=1e-9)
    assert comps.amplitudes[1] == pytest.approx(2.0 / math.pi, rel=1e-2)


def test_fa_map_threshold_is_strict():
    # rfft([1, 0, 0, 0]) == [1, 1, 1] exactly, giving amplitudes
    # [0.25, 0.5, 0.25].  With rho = 0.5 the cut sits exactly at 0.25 and
    # the strictly-greater rule must drop the mean and Nyquist bins.
    comps = fa_map(np.array([1.0, 0.0, 0.0, 0.0]), 1.0, rho=0.5)
    assert list(comps.frequencies) == [0.25]
    assert comps.amplitudes[0] == 0.5
    assert list(comps.bin_indices) == [1]


def test_fa_map_largest_line_always_included():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.normal(size=64)
        comps = fa_map(x, 0.001, rho=0.3)
        spec = dft_amplitude(x, 0.001)
        assert float(spec.amplitudes.max()) in set(comps.amplitudes)


@given(
    samples=random_signals,
    rho_pair=st.tuples(
        st.floats(min_value=0.01, max_value=0.98),
        st.floats(min_value=0.011, max_value=0.99),
    ),
)
@settings(max_examples=30, deadline=None)
def test_fa_map_component_count_shrinks_as_rho_grows(samples, rho_pair):
    x = np.asarray(samples)
    if float(np.max(np.abs(dft_amplitude(x, 0.001).amplitudes))) == 0.0:
        return  # all-zero signal is rejected; covered elsewhere
    lo, hi = sorted(rho_pair)
    assert len(fa_map(x, 0.001, rho=hi)) <= len(fa_map(x, 0.001, rho=lo))


def test_fa_map_rejects_all_zero_signal():
    with pytest.raises(ValueError):
        fa_map(np.zeros(16), 0.001)


@pytest.mark.parametrize("rho", [0.0, 1.0, -0.5, 1.5])
def test_fa_map_rejects_rho_outside_open_interval(rho):
    with pytest.raises(ValueError):
        fa_map(np.ones(8), 0.001, rho=rho)


def test_fa_map_as_dict_round_trip():
    comps = fa_map(np.array([1.0, 0.0, 0.0, 0.0]), 1.0, rho=0.5)
    d = comps.as_dict()
    assert d == {0.25: 0.5}


def test_fa_map_invariant_under_extra_repetitions():
    fast = TestCase(
        shape=ShapeKind.TRIANGLE, amp_gain=2.0, time_gain=1.0, periods=1, sample_interval=0.001
    )
    slow = TestCase(
        shape=ShapeKind.TRIANGLE, amp_gain=2.0, time_gain=1.0, periods=5, sample_interval=0.001
    )
    one = fa_map(render_reference(fast), 0.001)
    five = fa_map(render_reference(slow), 0.001)
    np.testing.assert_allclose(five.frequencies, one.frequencies, atol=1e-12)
    np.testing.assert_allclose(five.amplitudes, one.amplitudes, atol=1e-9)


def test_repetitions_expose_subharmonic_content():
    # A disturbance at half the reference frequency is invisible after one
    # period (no bin exists for it) but shows up once repetitions insert
    # intermediate bins.
    dt = 0.001
    case1 = TestCase(shape=ShapeKind.SINE, amp_gain=2.0, time_gain=1.0, periods=1, sample_interval=dt)
    case4 = TestCase(shape=ShapeKind.SINE, amp_gain=2.0, time_gain=1.0, periods=4, sample_interval=dt)
    r1 = render_reference(case1)
    r4 = render_reference(case4)
    sub1 = 0.5 * np.sin(2.0 * np.pi * 0.5 * np.arange(r1.size) * dt)
    sub4 = 0.5 * np.sin(2.0 * np.pi * 0.5 * np.arange(r4.size) * dt)
    dnl_1 = degree_of_nonlinearity(Trace(reference=r1, output=r1 + sub1, sample_interval=dt))
    dnl_4 = degree_of_nonlinearity(Trace(reference=r4, output=r4 + sub4, sample_interval=dt))
    # The rendered sine carries a unit oscillating line (plus a unit mean),
    # so once repetitions make the half-frequency tone an exact bin the full
    # ratio 0.5 / 1.0 is recovered; over one period it only leaks.
    assert dnl_4 == pytest.approx(0.5, abs=1e-9)
    assert dnl_1 < dnl_4


# ---------------------------------------------------------------------------
# Trace / degree_of_nonlinearity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "ref, out",
    [
        (np.ones(3), np.ones(4)),
        (np.ones(1), np.ones(1)),
        (np.ones((2, 2)), np.ones((2, 2))),
        (np.array([1.0, math.inf]), np.array([1.0, 1.0])),
        (np.array([1.0, 1.0]), np.array([math.nan, 1.0])),
    ],
)
def test_trace_rejects_malformed_pairs(ref, out):
    with pytest.raises(ValueError):
        Trace(reference=ref, output=out, sample_interval=0.001)


def test_trace_rejects_a_nonpositive_sample_interval():
    with pytest.raises(ValueError, match="sample_interval must be positive"):
        Trace(np.zeros(2), np.zeros(2), 0.0)


def test_dnl_zero_for_perfect_tracking_of_sine():
    r = sine_trace()
    dnl = degree_of_nonlinearity(Trace(reference=r, output=r.copy(), sample_interval=0.001))
    assert dnl < 1e-9


def test_dnl_recovers_injected_tone_ratio():
    dt = 0.001
    t = np.arange(3000) * dt
    r = 3.0 * np.sin(2.0 * np.pi * 1.0 * t)
    y = r + 0.2 * 3.0 * np.sin(2.0 * np.pi * 7.0 * t)
    dnl = degree_of_nonlinearity(Trace(reference=r, output=y, sample_interval=dt))
    assert dnl == pytest.approx(0.2, abs=1e-9)


def test_dnl_scale_reference_switch():
    # With the mean included, a large offset dominates the scale; without
    # it, the oscillatory line sets the scale.
    dt = 0.001
    t = np.arange(2000) * dt
    r = 5.0 + 1.0 * np.sin(2.0 * np.pi * 1.0 * t)
    y = r + 0.3 * np.sin(2.0 * np.pi * 9.0 * t)
    trace = Trace(reference=r, output=y, sample_interval=dt)
    with_mean = degree_of_nonlinearity(trace)
    without_mean = degree_of_nonlinearity(trace, include_mean_in_scale=False)
    assert with_mean == pytest.approx(0.3 / 5.0, abs=1e-9)
    assert without_mean == pytest.approx(0.3 / 1.0, abs=1e-9)


def test_dnl_rejects_zero_reference():
    z = np.zeros(16)
    with pytest.raises(ValueError):
        degree_of_nonlinearity(Trace(reference=z, output=np.ones(16), sample_interval=0.001))


@given(
    c=st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_dnl_invariant_under_joint_scaling(c, seed):
    rng = np.random.default_rng(seed)
    r = sine_trace()
    y = r + rng.normal(scale=0.2, size=r.size)
    base = degree_of_nonlinearity(Trace(reference=r, output=y, sample_interval=0.001))
    scaled = degree_of_nonlinearity(Trace(reference=c * r, output=c * y, sample_interval=0.001))
    assert abs(scaled - base) <= 1e-12


# ---------------------------------------------------------------------------
# dof_profile
# ---------------------------------------------------------------------------


def test_dof_zero_when_output_equals_reference():
    r = sine_trace()
    prof = dof_profile(Trace(reference=r, output=r.copy(), sample_interval=0.001))
    assert prof  # at least the fundamental
    assert all(v == 0.0 for v in prof.values())


def test_dof_one_when_output_is_zero():
    r = sine_trace()
    prof = dof_profile(Trace(reference=r, output=np.zeros_like(r), sample_interval=0.001))
    assert all(v == 1.0 for v in prof.values())


def test_dof_negative_for_amplified_output():
    r = sine_trace()
    prof = dof_profile(Trace(reference=r, output=2.0 * r, sample_interval=0.001))
    assert all(v == -1.0 for v in prof.values())


def test_dof_keys_match_reference_component_frequencies():
    r = sine_trace()
    prof = dof_profile(Trace(reference=r, output=0.5 * r, sample_interval=0.001))
    comps = fa_map(r, 0.001)
    assert sorted(prof.keys()) == sorted(comps.frequencies)


def test_dof_lookup_of_absent_frequency_raises_key_error():
    r = sine_trace()
    prof = dof_profile(Trace(reference=r, output=r, sample_interval=0.001))
    with pytest.raises(KeyError):
        prof[123.456]


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_dof_never_exceeds_one(seed):
    rng = np.random.default_rng(seed)
    r = sine_trace()
    y = rng.normal(scale=2.0, size=r.size)
    prof = dof_profile(Trace(reference=r, output=y, sample_interval=0.001))
    assert all(v <= 1.0 for v in prof.values())


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------


def test_spectrum_exposes_parallel_arrays():
    spec = dft_amplitude(np.ones(8), 0.5)
    assert isinstance(spec, Spectrum)
    assert spec.frequencies.shape == spec.amplitudes.shape


def test_component_set_len_and_dict_agree():
    comps = fa_map(np.array([1.0, 0.0, 0.0, 0.0]), 1.0, rho=0.4)
    assert isinstance(comps, ComponentSet)
    assert len(comps) == len(comps.as_dict())


# ---------------------------------------------------------------------------
# one spectrum per signal: the metrics from spectra equal the metrics from
# series, as computed before they shared their spectra
# ---------------------------------------------------------------------------


def reference_fa_map(samples, sample_interval, rho):
    spec = dft_amplitude(samples, sample_interval)
    peak = float(spec.amplitudes.max())
    if peak == 0.0:
        raise ValueError("all-zero series")
    idx = np.flatnonzero(spec.amplitudes > rho * peak)
    return spec.frequencies[idx], spec.amplitudes[idx], idx


def reference_dnl(trace, rho, include_mean_in_scale):
    ra = dft_amplitude(trace.reference, trace.sample_interval).amplitudes
    oa = dft_amplitude(trace.output, trace.sample_interval).amplitudes
    peak = float(ra.max())
    if peak == 0.0:
        raise ValueError("all-zero reference")
    new_bins = ~(ra > rho * peak)
    scale = peak if include_mean_in_scale else float(ra[1:].max())
    if scale == 0.0:
        raise ValueError("no non-mean component")
    if not np.any(new_bins):
        return 0.0
    return float(oa[new_bins].max()) / scale


def reference_dof_profile(trace, rho):
    freqs, amps, idx = reference_fa_map(trace.reference, trace.sample_interval, rho)
    out = dft_amplitude(trace.output, trace.sample_interval).amplitudes[idx]
    return {float(f): float(d) for f, d in zip(freqs, 1.0 - out / amps)}


def outcome(fn, *args, **kwargs):
    """``fn``'s result, or the type of the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc)


def float_bits(value):
    return value if isinstance(value, type) else np.float64(value).tobytes()


def dict_bits(value):
    if isinstance(value, type):
        return value
    return [(np.float64(k).tobytes(), np.float64(v).tobytes()) for k, v in value.items()]


def random_series(n, seed, kind):
    """A series of ``n`` samples: noise, a few spikes on zeros, a bin-aligned
    tone (a constant at bin 0) or all zeros."""
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros(n)
    if kind == "noise":
        return rng.normal(0.0, 10.0, n)
    if kind == "spikes":
        x = np.zeros(n)
        x[rng.integers(0, n, 3)] = rng.normal(0.0, 10.0, 3)
        return x
    return 3.0 * np.sin(2.0 * np.pi * rng.integers(0, n // 2 + 1) * np.arange(n) / n) + 1.0


series = st.sampled_from(["noise", "spikes", "tone", "zero"])


@given(
    n=st.integers(min_value=2, max_value=400),
    seed=st.integers(0, 2**32 - 1),
    kinds=st.tuples(series, series),
    rho=st.floats(0.01, 0.99),
    periods=st.integers(1, 4),
    dt=st.sampled_from([0.001, 0.003, 0.25]),
)
@example(n=3, seed=0, kinds=("tone", "noise"), rho=0.1, periods=1, dt=0.001)
@example(n=5, seed=0, kinds=("zero", "noise"), rho=0.1, periods=2, dt=0.001)
@example(n=7, seed=1, kinds=("spikes", "tone"), rho=0.2, periods=3, dt=0.25)
@example(n=131, seed=2, kinds=("noise", "noise"), rho=0.5, periods=1, dt=0.001)
@settings(max_examples=150, deadline=None)
def test_metrics_from_one_spectrum_per_signal_match_the_series_metrics(
    n, seed, kinds, rho, periods, dt
):
    # Repeating whole periods gives odd, even and prime lengths alike
    # (7 * 3, 131 * 1, 400 * 4).
    ref, out = (np.tile(random_series(n, seed + i, kind), periods) for i, kind in enumerate(kinds))
    trace = Trace(reference=ref, output=out, sample_interval=dt)
    ref_spec, out_spec = dft_amplitude(ref, dt), dft_amplitude(out, dt)

    expected = outcome(reference_fa_map, ref, dt, rho)
    for got in (outcome(fa_map, ref, dt, rho), outcome(components, ref_spec, rho)):
        if isinstance(expected, type):
            assert got is expected
            continue
        assert got.frequencies.tobytes() == expected[0].tobytes()
        assert got.amplitudes.tobytes() == expected[1].tobytes()
        assert got.bin_indices.tobytes() == expected[2].tobytes()

    for include in (True, False):
        expected_dnl = float_bits(outcome(reference_dnl, trace, rho, include))
        assert float_bits(outcome(
            degree_of_nonlinearity, trace, rho, include_mean_in_scale=include
        )) == expected_dnl
        assert float_bits(outcome(
            dnl_of_spectra, ref_spec, out_spec, rho, include_mean_in_scale=include
        )) == expected_dnl

    expected_dof = dict_bits(outcome(reference_dof_profile, trace, rho))
    assert dict_bits(outcome(dof_profile, trace, rho)) == expected_dof
    if not isinstance(expected_dof, type):
        comps = components(ref_spec, rho)
        assert dict_bits(dof_of_spectrum(comps, out_spec)) == expected_dof


# ---------------------------------------------------------------------------
# tiled_spectrum: a test's reference spectrum from its unit period
# ---------------------------------------------------------------------------

UNIT_ROUNDOFF = np.finfo(float).eps / 2


def gamma(k):
    """Higham's gamma_k: the relative error bound of k rounded operations."""
    return k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)


def prime_factors(n):
    factors, p = [], 2
    while p * p <= n:
        while n % p == 0:
            factors.append(p)
            n //= p
        p += 1
    return factors + ([n] if n > 1 else [])


def direct_fft_error(n):
    """Relative 2-norm error bound of an FFT of ``n`` points made of one
    pass per prime factor ``p`` of ``n``: a pass computes ``p``-point DFTs,
    sums of ``p`` products, then multiplies by a twiddle factor, which adds
    at most ``sqrt(p) * gamma(p + 3)``."""
    return sum(math.sqrt(p) * gamma(p + 3) for p in prime_factors(n))


def fft_error(n):
    """``c`` with ``||computed X - X||_2 <= c ||X||_2`` for numpy's FFT of
    ``n`` points (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 24).  For a length with a large prime factor, pocketfft may take
    Bluestein's path instead of the passes: three FFTs of an 11-smooth
    length ``m >= 2n - 1`` and two chirp multiplies.  Which one it takes is
    its own choice, so this is the larger bound of the two."""
    m = 2 * n - 1
    while max(prime_factors(m)) > 11:
        m += 1
    return max(direct_fft_error(n), 3.0 * direct_fft_error(m) + 2.0 * gamma(4))


@pytest.mark.parametrize("shape", list(ShapeKind))
# Odd, even, prime and 7-smooth samples per period.
@pytest.mark.parametrize("spp", [3, 8, 9, 97, 210, 1000, 1001, 2017])
def test_a_reference_spectrum_is_its_amplitude_times_the_unit_period_spectrum(shape, spp):
    dt = 0.001
    period = unit_period(shape, spp)
    for periods in (1, 2, 3, 4):
        unit = tiled_spectrum(period, periods, dt)
        for amplitude in (2.7, 1e-3, 611.0):
            case = TestCase(
                shape=shape, amp_gain=amplitude, time_gain=1.0 / (spp * dt), periods=periods,
                sample_interval=dt,
            )
            series = render_reference(case)
            assert (amplitude * np.tile(period, periods)).tobytes() == series.tobytes()

            today = dft_amplitude(series, dt)
            assert unit.frequencies.tobytes() == today.frequencies.tobytes()
            scaled = amplitude * unit.amplitudes
            assert not np.any(scaled[np.arange(len(scaled)) % periods != 0])
            # Per bin, an FFT's error is at most its 2-norm error: with
            # ||X||_2 = sqrt(n) ||x||_2, an amplitude 2 |X_k| / n errs by at
            # most 2 c rms(x) in each transform (the unit period's rms is the
            # series'), plus four roundings: |.|, / n, * 2 and * amplitude.
            rms = math.sqrt(np.mean(series**2))
            bound = (2.0 * rms * (fft_error(len(series)) + fft_error(spp))
                     + 4.0 * UNIT_ROUNDOFF * np.maximum(scaled, today.amplitudes))
            assert np.all(np.abs(scaled - today.amplitudes) <= bound)

            # The component sets agree on every bin that is not within the
            # rounding bound of the threshold.  A triangle of 9 samples ties
            # there: its third harmonic is 4/81, a tenth of its mean 40/81.
            rho = 0.1
            tie = np.abs(today.amplitudes - rho * today.amplitudes.max()) <= 2.0 * bound.max()
            new = np.zeros(len(scaled), dtype=bool)
            new[components(Spectrum(unit.frequencies, scaled), rho).bin_indices] = True
            old = np.zeros(len(scaled), dtype=bool)
            old[fa_map(series, dt, rho).bin_indices] = True
            assert np.array_equal(new[~tie], old[~tie])
            assert np.sum(tie) <= (1 if (shape, spp) == (ShapeKind.TRIANGLE, 9) else 0)


def test_tiled_spectrum_of_a_block_equals_its_rows():
    periods = np.stack([unit_period(shape, 12) for shape in ShapeKind])
    block = tiled_spectrum(periods, 3, 0.01)
    for row, period in zip(block.amplitudes, periods):
        assert row.tobytes() == tiled_spectrum(period, 3, 0.01).amplitudes.tobytes()
    with pytest.raises(ValueError, match="periods must be at least 1"):
        tiled_spectrum(periods, 0, 0.01)
