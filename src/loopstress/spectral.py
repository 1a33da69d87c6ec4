"""Amplitude spectra and frequency-domain test metrics.

Everything here works on single-sided amplitude spectra of real, periodic,
bin-aligned series (the renderer in :mod:`loopstress.signals` guarantees the
alignment).  Three metrics summarise a closed-loop run:

* ``fa_map`` -- the frequency/amplitude pairs of the reference components
  that carry meaningful energy (above a fraction ``rho`` of the strongest
  component).
* ``degree_of_nonlinearity`` (dnl) -- how much energy the loop created at
  frequencies *absent* from the reference, relative to the strongest
  reference component.  A linear time-invariant loop in periodic steady
  state scores ~0; values near 1 mean the response is dominated by new
  frequencies.
* ``dof_profile`` (degree of filtering) -- per relevant component,
  ``1 - |Y(f)| / |R(f)|``: 0 is perfect tracking, 1 is complete filtering,
  negative values are amplification.  Only meaningful when the loop behaved
  linearly (low dnl).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "Spectrum",
    "ComponentSet",
    "Trace",
    "dft_amplitude",
    "tiled_spectrum",
    "fa_map",
    "components",
    "degree_of_nonlinearity",
    "dnl_of_spectra",
    "dof_profile",
    "dof_of_spectrum",
]


class Spectrum(NamedTuple):
    """Single-sided amplitude spectrum: ``amplitudes[k]`` at ``frequencies[k]``."""

    frequencies: np.ndarray
    amplitudes: np.ndarray


@dataclass(frozen=True)
class ComponentSet:
    """Relevant reference components: a frequency -> amplitude map plus ``rho``."""

    frequencies: np.ndarray
    amplitudes: np.ndarray
    rho: float
    bin_indices: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.frequencies)

    def as_dict(self) -> dict[float, float]:
        return {float(f): float(a) for f, a in zip(self.frequencies, self.amplitudes)}


@dataclass(frozen=True)
class Trace:
    """Reference and measured output of one closed-loop run, same sampling."""

    reference: np.ndarray
    output: np.ndarray
    sample_interval: float

    def __post_init__(self):
        ref = np.asarray(self.reference, dtype=float)
        out = np.asarray(self.output, dtype=float)
        object.__setattr__(self, "reference", ref)
        object.__setattr__(self, "output", out)
        if ref.ndim != 1 or out.ndim != 1 or len(ref) != len(out):
            raise ValueError("reference and output must be 1-D and equally long")
        if len(ref) < 2:
            raise ValueError("trace must contain at least two samples")
        if self.sample_interval <= 0.0:
            raise ValueError("sample_interval must be positive")
        if not (np.all(np.isfinite(ref)) and np.all(np.isfinite(out))):
            raise ValueError("trace contains non-finite samples")


def dft_amplitude(samples: np.ndarray, sample_interval: float) -> Spectrum:
    """Single-sided amplitude spectrum of a real series, or of each row of a
    2-D block of equally long series.

    Scaling is chosen so amplitudes read in the units of the signal: a pure
    bin-aligned sinusoid of amplitude ``a`` produces a single component of
    amplitude ``a``, and a constant series ``c`` produces ``c`` at 0 Hz.
    Interior bins are scaled ``2/N``; the 0 Hz bin and (for even ``N``) the
    Nyquist bin are scaled ``1/N``.  For a block, ``amplitudes[i]`` is row
    ``i``'s spectrum, the same bits as a call on that row alone, and
    ``frequencies`` is shared by the rows; one call over many rows costs
    several times less per row than a call per row.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] < 2 or x.size == 0:
        raise ValueError("need a 1-D series or a block of rows with at least two samples")
    if sample_interval <= 0.0:
        raise ValueError("sample_interval must be positive")
    n = x.shape[-1]
    amps = np.abs(np.fft.rfft(x)) / n
    amps[..., 1:] *= 2.0
    if n % 2 == 0:
        amps[..., -1] /= 2.0  # Nyquist bin has no mirror image
    freqs = np.fft.rfftfreq(n, d=sample_interval)
    return Spectrum(frequencies=freqs, amplitudes=amps)


def tiled_spectrum(period: np.ndarray, periods: int, sample_interval: float) -> Spectrum:
    """:func:`dft_amplitude` of ``np.tile(period, periods)``, or of each row of
    a block of equally long periods so tiled, from one ``rfft`` of the
    periods alone.

    A series that repeats one period ``periods`` times has that period's
    spectrum on every ``periods``-th bin, with the same amplitudes, and
    nothing on the other bins, which are exactly 0 here.  The amplitude
    spectrum of ``a * np.tile(period, periods)``, for ``a >= 0``, is ``a``
    times this one: that is how a test's reference is scored.  It differs
    from the ``rfft`` of the rendered series only by rounding, in the last
    bits: ``a * |F(u)|`` is not ``|F(a * u)|``.
    """
    x = np.asarray(period, dtype=float)
    if periods < 1:
        raise ValueError("periods must be at least 1")
    unit = dft_amplitude(x, sample_interval).amplitudes
    n = periods * x.shape[-1]
    amps = np.zeros(x.shape[:-1] + (n // 2 + 1,))
    amps[..., ::periods] = unit
    return Spectrum(frequencies=np.fft.rfftfreq(n, d=sample_interval), amplitudes=amps)


def _check_rho(rho: float) -> None:
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie strictly between 0 and 1")


def fa_map(samples: np.ndarray, sample_interval: float, rho: float = 0.1) -> ComponentSet:
    """Return the components whose amplitude exceeds ``rho`` times the maximum.

    The comparison is strict, so with ``0 < rho < 1`` the largest component is
    always a member.  An all-zero series has no meaningful components and is
    rejected.
    """
    _check_rho(rho)
    return components(dft_amplitude(samples, sample_interval), rho)


def components(spectrum: Spectrum, rho: float = 0.1) -> ComponentSet:
    """:func:`fa_map` of the series whose spectrum is ``spectrum``."""
    _check_rho(rho)
    amps = spectrum.amplitudes
    peak = float(amps.max())
    if peak == 0.0:
        raise ValueError("all-zero series has no components above threshold")
    idx = np.flatnonzero(amps > rho * peak)
    return ComponentSet(
        frequencies=spectrum.frequencies[idx],
        amplitudes=amps[idx],
        rho=rho,
        bin_indices=idx,
    )


def degree_of_nonlinearity(trace: Trace, rho: float = 0.1) -> float:
    """Energy the loop created at frequencies absent from the reference.

    Computed as the largest output amplitude over the DFT bins *not* in the
    reference component set, divided by the largest reference amplitude,
    the 0 Hz component included.  Rendering the reference with several
    repeated periods inserts extra bins between the reference harmonics,
    which is what makes spectrum broadening (dropped periodicity,
    subharmonics, intermodulation) observable.
    """
    _check_rho(rho)
    freqs, amps = dft_amplitude(np.stack((trace.reference, trace.output)), trace.sample_interval)
    return dnl_of_spectra(Spectrum(freqs, amps[0]), Spectrum(freqs, amps[1]), rho)


def dnl_of_spectra(reference: Spectrum, output: Spectrum, rho: float = 0.1) -> float:
    """:func:`degree_of_nonlinearity` of a run whose reference and output
    have the spectra ``reference`` and ``output``: the largest output
    amplitude off ``components(reference, rho)``, over the reference's peak."""
    _check_rho(rho)
    ra = reference.amplitudes
    peak = float(ra.max())
    if peak == 0.0:
        raise ValueError("all-zero reference has no components above threshold")
    new_bins = ~(ra > rho * peak)
    if not np.any(new_bins):
        return 0.0
    return float(output.amplitudes[new_bins].max()) / peak


def dof_profile(trace: Trace, rho: float = 0.1) -> dict[float, float]:
    """Degree of filtering ``1 - |Y(f)|/|R(f)|`` per relevant reference component.

    Returns a frequency -> dof map over exactly the components of
    ``fa_map(reference)``.  Values: 0 for perfect tracking, 1 for complete
    filtering, negative for amplification.  The caller is responsible for
    only interpreting the profile when the run was linear (low dnl).
    """
    comps = fa_map(trace.reference, trace.sample_interval, rho)
    return dof_of_spectrum(comps, dft_amplitude(trace.output, trace.sample_interval))


def dof_of_spectrum(comps: ComponentSet, output: Spectrum) -> dict[float, float]:
    """:func:`dof_profile` of a run whose reference has the components
    ``comps`` and whose output has the spectrum ``output``; the keys are
    ``output``'s frequencies."""
    dof = 1.0 - output.amplitudes[comps.bin_indices] / comps.amplitudes
    return {
        float(f): float(d) for f, d in zip(output.frequencies[comps.bin_indices], dof)
    }
