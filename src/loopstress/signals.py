"""Parametric periodic reference signals.

A stress test drives a control loop with a periodic reference built from a
normalised *shape*: a waveform with unit period and unit amplitude range
(values in [0, 1], phase origin at the low value so a plant starting at rest
sees the first commanded change).  A concrete test scales the shape by an
amplitude gain ``A`` and a time gain ``T``::

    r(t) = A * shape(T * t)

so ``T`` is the fundamental frequency in Hz and ``A`` the peak-to-peak span.
Rendering is sample-exact: the phase of sample ``n`` is computed as
``(n mod samples_per_period) / samples_per_period``, which keeps repeated
periods bit-identical and time-scaled variants phase-aligned.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class ShapeKind(str, enum.Enum):
    """Built-in normalised waveforms."""

    SINE = "sine"
    SQUARE = "square"
    SAWTOOTH = "sawtooth"
    TRIANGLE = "triangle"
    TRAPEZOID = "trapezoid"


def eval_shape(shape: ShapeKind, phase):
    """Evaluate a normalised shape at ``phase`` in [0, 1).

    Parameters
    ----------
    shape : ShapeKind
        Which waveform to evaluate.
    phase : float or ndarray
        Position within the period, in [0, 1).  Arrays are evaluated
        elementwise.

    Returns
    -------
    float or ndarray
        Value(s) in [0, 1].

    Notes
    -----
    Definitions (``p`` = phase):

    * sine:      ``0.5 + 0.5 * sin(2*pi*p)``
    * square:    ``0`` for ``p < 0.5``, else ``1``
    * sawtooth:  ``p``
    * triangle:  rises 0 -> 1 on [0, 0.5), falls back on [0.5, 1)
    * trapezoid: rise [0, 0.25), hold 1 [0.25, 0.5), fall [0.5, 0.75),
      hold 0 [0.75, 1)
    """
    p = np.asarray(phase, dtype=float)
    if not np.all(np.isfinite(p)) or np.any(p < 0.0) or np.any(p >= 1.0):
        raise ValueError("phase must lie in [0, 1)")
    shape = ShapeKind(shape)
    if shape is ShapeKind.SINE:
        out = 0.5 + 0.5 * np.sin(2.0 * np.pi * p)
    elif shape is ShapeKind.SQUARE:
        out = np.where(p < 0.5, 0.0, 1.0)
    elif shape is ShapeKind.SAWTOOTH:
        out = p.copy()
    elif shape is ShapeKind.TRIANGLE:
        out = np.where(p < 0.5, 2.0 * p, 2.0 - 2.0 * p)
    elif shape is ShapeKind.TRAPEZOID:
        out = np.select(
            [p < 0.25, p < 0.5, p < 0.75],
            [4.0 * p, 1.0, 3.0 - 4.0 * p],
            default=0.0,
        )
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown shape {shape!r}")
    if np.isscalar(phase) or np.ndim(phase) == 0:
        return float(out)
    return out


def samples_per_period(time_gain: float, sample_interval: float) -> int:
    """Number of samples in one period; errors unless it is a whole number."""
    if time_gain <= 0.0 or sample_interval <= 0.0:
        raise ValueError("time_gain and sample_interval must be positive")
    raw = 1.0 / (time_gain * sample_interval)
    spp = round(raw)
    if spp < 3 or abs(raw - spp) > 1e-6 * raw:
        raise ValueError(
            f"period 1/{time_gain} is not an integer multiple of the sample "
            f"interval {sample_interval} (got {raw} samples per period)"
        )
    return spp


def snap_time_gain(frequency: float, sample_interval: float) -> float:
    """Round ``frequency`` so one period is a whole number of samples.

    Keeps every rendered period bit-identical and every DFT bin aligned with
    the reference harmonics.  The snap error is at most one sample per period.
    """
    if frequency <= 0.0:
        raise ValueError("frequency must be positive")
    spp = max(3, round(1.0 / (frequency * sample_interval)))
    return 1.0 / (spp * sample_interval)


@dataclass(frozen=True)
class TestCase:
    """One fully specified stress test: shape, gains, repetitions, sampling.

    ``amp_gain`` scales the unit range, ``time_gain`` is the fundamental
    frequency in Hz, ``periods`` is how many times the period is repeated and
    ``sample_interval`` the controller/sampling step in seconds.
    """

    # Not a pytest test class, despite the name.
    __test__ = False

    shape: ShapeKind
    amp_gain: float
    time_gain: float
    periods: int = 1
    sample_interval: float = 0.001

    def __post_init__(self):
        object.__setattr__(self, "shape", ShapeKind(self.shape))
        if not math.isfinite(self.amp_gain) or self.amp_gain < 0.0:
            raise ValueError("amp_gain must be a non-negative finite number")
        if self.time_gain <= 0.0:
            raise ValueError("time_gain must be positive")
        if self.periods < 1:
            raise ValueError("periods must be at least 1")
        if self.sample_interval * self.time_gain >= 0.5:
            raise ValueError("sample interval too coarse for this time gain")
        samples_per_period(self.time_gain, self.sample_interval)

    @property
    def samples_per_period(self) -> int:
        return samples_per_period(self.time_gain, self.sample_interval)

    @property
    def duration(self) -> float:
        """Total rendered time in seconds."""
        return self.periods * self.samples_per_period * self.sample_interval


def unit_period(shape: ShapeKind, spp: int) -> np.ndarray:
    """One period of ``shape`` at amplitude 1, ``spp`` samples long: sample
    ``n`` at phase ``n / spp``."""
    return eval_shape(shape, np.arange(spp) / spp)


def render_reference(case: TestCase) -> np.ndarray:
    """Render the reference series ``r[n] = A * shape(phase_n)``.

    The phase sequence is derived from integer sample counts, so repetitions
    are exact copies of the first period and halving the time gain reproduces
    the same phases at every other sample.  One period is rendered and
    tiled, which gives the same bits as rendering sample ``n`` at phase
    ``(n mod samples_per_period) / samples_per_period``: sample ``n`` is
    ``A * unit_period(shape, spp)[n % spp]``, one multiply.
    """
    period = case.amp_gain * unit_period(case.shape, case.samples_per_period)
    return np.tile(period, case.periods)

