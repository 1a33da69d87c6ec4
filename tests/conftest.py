"""Shared helpers for the test suite.

Provides a brute-force spectrum oracle (direct O(N^2) evaluation of the
DFT sum, independent of any FFT library), a factory for synthetic
``TestResult`` records so analysis-level behaviour can be tested without
running simulations, and one for bandwidth estimates, the ``stepper``
fixture, which runs a test once on each of the plant simulator's two
steppers, and ``JSON_VALUES``, the values a hand-edited config or artifact
field may hold.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from loopstress import plants
from loopstress.analysis import BandwidthEstimate, BandwidthStatus
from loopstress.records import Component, GeneratedTest, TestResult
from loopstress.signals import ShapeKind, TestCase, snap_time_gain


# Any value Python's json reads, NaN and the infinities included.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


@pytest.fixture(params=["compiled", "python"])
def stepper(request, monkeypatch):
    """Runs a test on the compiled stepper, then on ``plants._simulate``."""
    if request.param == "compiled":
        assert plants.load_kernel() is not None
    else:
        monkeypatch.setattr(plants, "load_kernel", lambda: None)
    return request.param


def brute_force_spectrum(samples, sample_interval):
    """Single-sided amplitude spectrum computed straight from the DFT sum.

    Returns ``(frequencies, amplitudes)`` with the same normalisation the
    package uses: interior bins carry ``2|X_k|/N``, the mean and (for even
    N) Nyquist bins carry ``|X_k|/N``.
    """
    x = np.asarray(samples, dtype=float)
    n = x.size
    n_bins = n // 2 + 1
    k = np.arange(n_bins)[:, None]
    j = np.arange(n)[None, :]
    basis = np.exp(-2j * np.pi * k * j / n)
    coeff = basis @ x
    amps = np.abs(coeff) / n
    amps[1:] *= 2.0
    if n % 2 == 0:
        amps[-1] /= 2.0
    freqs = np.arange(n_bins) / (n * sample_interval)
    return freqs, amps


def make_result(
    shape=ShapeKind.SQUARE,
    amp=1.0,
    frequency=1.0,
    dnl=0.0,
    components=(),
    diverged=False,
    periods=5,
    sample_interval=0.001,
    actuator_sat=0.0,
    sensor_sat=0.0,
    deviation=0.0,
):
    """Synthetic TestResult: components given as (frequency, amplitude, dof)."""
    time_gain = snap_time_gain(frequency, sample_interval)
    case = TestCase(
        shape=ShapeKind(shape),
        amp_gain=amp,
        time_gain=time_gain,
        periods=periods,
        sample_interval=sample_interval,
    )
    test = GeneratedTest(
        case=case,
        target_frequency=frequency,
        bound=max(amp, 1.0),
        snap_error=abs(time_gain - frequency),
    )
    comps = tuple(Component(frequency=f, amplitude=a, dof=d) for f, a, d in components)
    return TestResult(
        test=test,
        dnl=dnl,
        components=comps,
        actuator_saturation_fraction=actuator_sat,
        sensor_saturation_fraction=sensor_sat,
        deviation_mean=deviation,
        diverged=diverged,
    )


def bandwidth_estimates(values: dict) -> dict:
    """Shape -> ``BandwidthEstimate``: a defined estimate of each value,
    from two points, and an insufficient one for ``None``."""
    return {
        shape: BandwidthEstimate(None, BandwidthStatus.INSUFFICIENT, 0) if value is None
        else BandwidthEstimate(value, BandwidthStatus.OK, 2)
        for shape, value in values.items()
    }


def violation_family(n_amps, n_speeds=92):
    """Linear square tests at ``n_speeds`` speeds from 0.1 to 2 Hz times
    ``n_amps`` amplitudes, whose dof falls with speed: every pair of speeds
    violates MR2 at all three components, and every dominating pair MR1
    (equal dnl).  Four amplitudes give 200,928 MR2 violations, eight give
    four times as many."""
    results = []
    for s in range(n_speeds):
        frequency = 0.1 + 1.9 * s / (n_speeds - 1)
        dof = round(0.9 - 0.3 * s / n_speeds, 6)
        for a in range(n_amps):
            results.append(
                make_result(
                    ShapeKind.SQUARE, amp=0.5 + 0.25 * a, frequency=frequency, dnl=0.01,
                    components=[(k * frequency, 1.0 / k, dof) for k in (1, 3, 5)],
                    actuator_sat=0.1 if a == n_amps - 1 else 0.0,
                )
            )
    return results
