"""Campaign planning and execution.

A campaign stresses one control loop over a frequency range ``[f_min,
f_max]`` with amplitudes up to ``a_max``, at resolution ``delta_a``:

1. *Calibrate* how many periods each test repeats
   (:func:`choose_num_periods`): repetitions insert DFT bins between the
   reference harmonics, which is what makes non-periodic behaviour visible,
   but longer tests cost simulation time.
2. *Bound* the linear envelope (:func:`optimistic_amplitude_bound`):
   per frequency, a sinusoidal binary search finds the largest amplitude
   whose dnl stays under the threshold; frequencies are refined where
   adjacent bounds disagree by more than ``delta_a``.
3. *Generate* the test set (:func:`generate_test_set`): a uniform frequency
   grid, all requested shapes, amplitudes drawn under the interpolated
   bound -- skewed toward the bound, where the interesting behaviour is.
4. *Execute* (:func:`execute_campaign`): run every test, score dnl, the
   per-component degree of filtering (for linear tests), saturation
   fractions and the injected-non-linearity deviation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .plants import LaneRun, PlantSpec, run_lanes, run_plant
from .signals import ShapeKind, TestCase, render_reference, snap_time_gain
# ``fa_map`` and ``dof_profile`` are imported for callers that look them up
# here (perfbench/tracer.py wraps them by name); the run stage scores from
# spectra.
from .spectral import Trace, degree_of_nonlinearity, dof_profile, fa_map  # noqa: F401

__all__ = [
    "RequiredInput",
    "AmplitudeBoundMap",
    "BoundRefinementError",
    "binary_search_upperbound",
    "optimistic_amplitude_bound",
    "derive_frequency_resolution",
    "GeneratedTest",
    "TestSet",
    "generate_test_set",
    "Component",
    "TestResult",
    "execute_campaign",
    "calibration_curve",
    "pick_num_periods",
    "choose_num_periods",
]


@dataclass(frozen=True)
class RequiredInput:
    """What the tester must supply about the system under test."""

    f_min: float
    f_max: float
    a_max: float
    delta_a: float
    dnl_threshold: float = 0.15
    rho: float = 0.1
    base_periods: int = 5
    sample_interval: float = 0.001
    # Whether the dnl denominator's maximum may be the 0 Hz component.
    dnl_includes_mean: bool = True

    def __post_init__(self):
        if not 0.0 < self.f_min < self.f_max:
            raise ValueError("need 0 < f_min < f_max")
        if self.a_max <= 0.0:
            raise ValueError("a_max must be positive")
        if not 0.0 < self.delta_a <= self.a_max:
            raise ValueError("need 0 < delta_a <= a_max")
        if self.dnl_threshold <= 0.0:
            raise ValueError("dnl_threshold must be positive")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie strictly between 0 and 1")
        if self.base_periods < 1:
            raise ValueError("base_periods must be at least 1")
        if self.sample_interval <= 0.0:
            raise ValueError("sample_interval must be positive")
        if self.sample_interval * self.f_max >= 0.5:
            raise ValueError("sample interval too coarse for f_max")


class BoundRefinementError(RuntimeError):
    """Raised when bound refinement hits its frequency cap; carries the partial map."""

    def __init__(self, message: str, partial: "AmplitudeBoundMap"):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class AmplitudeBoundMap:
    """Per-frequency largest amplitude that kept the loop linear.

    ``unresolved`` lists adjacent frequency pairs whose bound gap still
    exceeds ``delta_a`` but that cannot be split further (the midpoint is no
    longer distinguishable from the endpoints): the plant's linear envelope
    has a jump there sharper than the refinement can resolve.
    """

    frequencies: tuple[float, ...]
    bounds: tuple[float, ...]
    unresolved: tuple[tuple[float, float], ...] = ()
    probes: int = 0

    def __post_init__(self):
        if len(self.frequencies) != len(self.bounds):
            raise ValueError("frequencies and bounds must have equal length")
        if len(self.frequencies) < 2:
            raise ValueError("a bound map needs at least two frequencies")
        if any(b <= a for a, b in zip(self.frequencies, self.frequencies[1:])):
            raise ValueError("frequencies must be strictly increasing")
        if any(b <= 0.0 for b in self.bounds):
            raise ValueError("bounds must be positive")

    def interpolate(self, frequency: float) -> float:
        """Bound at ``frequency``, linearly interpolated, clamped at the ends."""
        return float(
            np.interp(frequency, self.frequencies, self.bounds)
        )


def _sine_probe(plant: PlantSpec, inputs: RequiredInput):
    """Real probe: dnl of a sinusoidal test at (frequency, amplitude)."""
    if plant is None:
        raise ValueError("need either a plant or a probe")

    def probe(frequency: float, amplitude: float) -> float:
        tg = snap_time_gain(frequency, inputs.sample_interval)
        case = TestCase(
            shape=ShapeKind.SINE,
            amp_gain=amplitude,
            time_gain=tg,
            periods=inputs.base_periods,
            sample_interval=inputs.sample_interval,
        )
        run = run_plant(plant, render_reference(case))
        if run.diverged:
            return math.inf
        return degree_of_nonlinearity(
            run.trace, inputs.rho, include_mean_in_scale=inputs.dnl_includes_mean
        )

    return probe


def binary_search_upperbound(
    plant: PlantSpec | None,
    frequency: float,
    inputs: RequiredInput,
    probe=None,
) -> float:
    """Largest amplitude at ``frequency`` whose sinusoidal dnl stays in bounds.

    Probes ``a_max`` first (returning it immediately if the loop is linear
    there), then bisects ``(0, a_max]`` until the bracket is narrower than
    ``delta_a``, returning the greatest amplitude observed under the
    threshold.  Divergence counts as exceeding the threshold.  Cost: at most
    ``ceil(log2(a_max / delta_a)) + 2`` probes.

    ``probe(frequency, amplitude) -> dnl`` may be supplied instead of a
    plant (e.g. a closed-form oracle in tests).
    """
    if probe is None:
        probe = _sine_probe(plant, inputs)
    th = inputs.dnl_threshold
    if probe(frequency, inputs.a_max) <= th:
        return inputs.a_max
    lo, hi = 0.0, inputs.a_max
    best = None
    while hi - lo >= inputs.delta_a:
        mid = 0.5 * (lo + hi)
        if probe(frequency, mid) <= th:
            lo = mid
            best = mid
        else:
            hi = mid
    # Nothing under the threshold was seen: the true bound is below delta_a;
    # report the smallest failing amplitude, which is within delta_a of it.
    return best if best is not None else hi


def optimistic_amplitude_bound(
    plant: PlantSpec | None,
    inputs: RequiredInput,
    probe=None,
    max_frequencies: int = 256,
) -> AmplitudeBoundMap:
    """Sample the linear amplitude envelope over ``[f_min, f_max]``.

    Starts from the range endpoints, then repeatedly splits the adjacent
    frequency pair with the largest bound gap above ``delta_a`` at its
    geometric mean.  Pairs whose midpoint collapses onto an endpoint (a
    sharper-than-resolvable jump) are reported as ``unresolved``.  Raises
    :class:`BoundRefinementError` carrying the partial map if more than
    ``max_frequencies`` frequencies would be sampled.
    """
    if probe is None:
        probe = _sine_probe(plant, inputs)
    probes = 0

    def counted(frequency: float, amplitude: float) -> float:
        nonlocal probes
        probes += 1
        return probe(frequency, amplitude)

    bounds: dict[float, float] = {}
    for f in (inputs.f_min, inputs.f_max):
        bounds[f] = binary_search_upperbound(plant, f, inputs, counted)
    closed: set[tuple[float, float]] = set()

    def build() -> AmplitudeBoundMap:
        fs = tuple(sorted(bounds))
        return AmplitudeBoundMap(
            frequencies=fs,
            bounds=tuple(bounds[f] for f in fs),
            unresolved=tuple(sorted(closed)),
            probes=probes,
        )

    while True:
        fs = sorted(bounds)
        gaps = [
            (abs(bounds[a] - bounds[b]), a, b)
            for a, b in zip(fs, fs[1:])
            if abs(bounds[a] - bounds[b]) > inputs.delta_a and (a, b) not in closed
        ]
        if not gaps:
            return build()
        gap, f_lo, f_hi = max(gaps, key=lambda g: (g[0], -g[1]))
        f_new = math.sqrt(f_lo * f_hi)
        if not f_lo < f_new < f_hi:
            closed.add((f_lo, f_hi))
            continue
        if len(bounds) >= max_frequencies:
            raise BoundRefinementError(
                f"bound refinement exceeded {max_frequencies} frequencies; "
                f"widest remaining gap {gap:g} between {f_lo:g} and {f_hi:g} Hz",
                build(),
            )
        bounds[f_new] = binary_search_upperbound(plant, f_new, inputs, counted)


def derive_frequency_resolution(bound_map: AmplitudeBoundMap) -> float:
    """Mean gap between consecutive sampled frequencies."""
    fs = bound_map.frequencies
    return float((fs[-1] - fs[0]) / (len(fs) - 1))


@dataclass(frozen=True)
class GeneratedTest:
    """A test case plus how it was derived."""

    case: TestCase
    target_frequency: float
    bound: float
    snap_error: float


@dataclass(frozen=True)
class TestSet:
    # Not a pytest test class, despite the name.
    __test__ = False

    tests: tuple[GeneratedTest, ...]
    seed: int
    frequency_step: float
    shapes: tuple[ShapeKind, ...]


def generate_test_set(
    bound_map: AmplitudeBoundMap,
    shapes: tuple[ShapeKind, ...],
    inputs: RequiredInput,
    seed: int = 0,
    beta_params: tuple[float, float] = (2.0, 1.0),
) -> TestSet:
    """Draw the campaign's test set under the sampled amplitude envelope.

    Frequencies lie on a uniform grid over ``[f_min, f_max]`` spaced by the
    mean bound-map gap.  Per shape and frequency, ``ceil(bound / delta_a)``
    amplitudes are drawn from a Beta distribution (default Beta(2,1), denser
    near the bound) scaled to ``(0, bound]``.  The draw order is fixed, so
    equal arguments and seed reproduce the identical test set.
    """
    shapes = tuple(ShapeKind(s) for s in shapes)
    if not shapes:
        raise ValueError("need at least one shape")
    if len(set(shapes)) != len(shapes):
        raise ValueError("shapes must be unique")
    alpha, beta = beta_params
    if alpha <= 0.0 or beta <= 0.0:
        raise ValueError("beta distribution parameters must be positive")

    df = derive_frequency_resolution(bound_map)
    n_freq = int(math.floor((inputs.f_max - inputs.f_min) / df + 1e-9)) + 1
    freqs = [inputs.f_min + k * df for k in range(n_freq)]

    rng = np.random.default_rng(seed)
    tests: list[GeneratedTest] = []
    for shape in shapes:
        for f in freqs:
            bound = bound_map.interpolate(f)
            n_amps = max(1, math.ceil(bound / inputs.delta_a))
            draws = rng.beta(alpha, beta, size=n_amps)
            tg = snap_time_gain(f, inputs.sample_interval)
            snap_error = abs(tg - f)
            for x in draws:
                amp = float(max(x, 1e-12) * bound)
                tests.append(
                    GeneratedTest(
                        case=TestCase(
                            shape=shape,
                            amp_gain=amp,
                            time_gain=tg,
                            periods=inputs.base_periods,
                            sample_interval=inputs.sample_interval,
                        ),
                        target_frequency=f,
                        bound=bound,
                        snap_error=snap_error,
                    )
                )
    return TestSet(tests=tuple(tests), seed=seed, frequency_step=df, shapes=shapes)


@dataclass(frozen=True)
class Component:
    """One relevant reference component and, for linear runs, its filtering."""

    frequency: float
    amplitude: float
    dof: float | None


@dataclass(frozen=True)
class TestResult:
    # Not a pytest test class, despite the name.
    __test__ = False

    test: GeneratedTest
    dnl: float
    components: tuple[Component, ...]
    actuator_saturation_fraction: float
    sensor_saturation_fraction: float
    deviation_mean: float
    diverged: bool

    @property
    def case(self) -> TestCase:
        return self.test.case


# Largest chunk of the run stage, in lanes times steps.  A chunk holds 26
# bytes per lane-step at its peak (the rendered references, outputs,
# velocities and flags; 34 with a dead zone or backlash; see
# ``plants.run_lanes``), so 400,000 lane-steps add about 10 to 15 MB to the
# process that runs it.  That keeps a pool worker on the servo campaign
# (about 37 MB) below the main process's peak in the analyze stage (about
# 42 MB); 2**19 lane-steps measured no faster.
_CHUNK_LANE_STEPS = 400_000
# Chunks narrower than this run test by test through ``run_plant``: one
# lockstep step costs about as much as 20 to 30 scalar steps, nearly
# whatever the lane count (``scripts/bench_sim.py`` measures both).
_MIN_LANES = 25


def _result(
    plant: PlantSpec,
    test: GeneratedTest,
    reference: np.ndarray,
    run: LaneRun,
    inputs: RequiredInput,
) -> TestResult:
    """Score one run from one spectrum per signal.

    The numbers are those of ``fa_map`` on the reference and, on the run's
    trace, ``degree_of_nonlinearity`` and (for a linear run)
    ``dof_profile``.
    """
    ref_spec = spectral.dft_amplitude(reference, test.case.sample_interval)
    comps = spectral.components(ref_spec, inputs.rho)
    if run.diverged:
        dnl = math.inf
        dof = {}
    else:
        out_spec = spectral.dft_amplitude(run.output, plant.sample_interval)
        dnl = spectral.dnl_of_spectra(
            ref_spec, out_spec, inputs.rho, include_mean_in_scale=inputs.dnl_includes_mean
        )
        dof = spectral.dof_of_spectrum(comps, out_spec) if dnl < inputs.dnl_threshold else {}
    components = tuple(
        Component(frequency=float(f), amplitude=float(a), dof=dof.get(float(f)))
        for f, a in zip(comps.frequencies, comps.amplitudes)
    )
    return TestResult(
        test=test,
        dnl=dnl,
        components=components,
        actuator_saturation_fraction=run.actuator_saturation_fraction,
        sensor_saturation_fraction=run.sensor_saturation_fraction,
        deviation_mean=run.deviation_mean,
        diverged=run.diverged,
    )


def _run_chunk(plant: PlantSpec, inputs: RequiredInput, tests, lanes: bool) -> list[TestResult]:
    """Results of ``tests``, simulated as the lanes of one lockstep loop or
    one by one."""
    references = [render_reference(t.case) for t in tests]
    if lanes:
        runs = run_lanes(plant, references)
    else:
        runs = [LaneRun.of(run_plant(plant, r)) for r in references]
    return [
        _result(plant, test, reference, run, inputs)
        for test, reference, run in zip(tests, references, runs)
    ]


def _chunks(tests) -> list[list[int]]:
    """Indices of ``tests`` cut into run chunks, longest tests first.

    Tests are sorted by sample count, and each chunk takes as many as fit
    in ``_CHUNK_LANE_STEPS`` at the length of its first, longest test.
    """
    lengths = [t.case.periods * t.case.samples_per_period for t in tests]
    order = sorted(range(len(tests)), key=lambda i: -lengths[i])
    chunks, pos = [], 0
    while pos < len(order):
        width = max(1, _CHUNK_LANE_STEPS // lengths[order[pos]])
        chunks.append(order[pos:pos + width])
        pos += width
    return chunks


def execute_campaign(
    plant: PlantSpec,
    tests,
    inputs: RequiredInput,
    workers: int = 1,
    progress=None,
) -> tuple[TestResult, ...]:
    """Run every generated test; results keep the test order.

    Tests of similar length are simulated together as the lanes of one
    lockstep loop (:func:`loopstress.plants.run_lanes`), in chunks of at
    most ``_CHUNK_LANE_STEPS`` lane-steps; each chunk renders its own
    references.  Chunks narrower than ``_MIN_LANES`` run test by test.
    With ``workers > 1`` the chunks go to a process pool, longest first.
    Each test is an independent deterministic simulation, and both paths
    give the same bits, so the outcome is identical for any ``workers``
    count; workers only trade wall time.  ``progress(done, total)``, if
    given, is called with the number of tests collected after each chunk.
    """
    if isinstance(tests, TestSet):
        tests = tests.tests
    tests = tuple(tests)
    if workers < 1:
        raise ValueError("workers must be at least 1")
    chunks = _chunks(tests)
    run_chunk = functools.partial(_run_chunk, plant, inputs)
    chunk_tests = [[tests[i] for i in chunk] for chunk in chunks]
    lanes = [len(chunk) >= _MIN_LANES for chunk in chunks]
    results: list = [None] * len(tests)

    def collect(chunk_results) -> None:
        done = 0
        for chunk, chunk_result in zip(chunks, chunk_results):
            for i, result in zip(chunk, chunk_result):
                results[i] = result
            done += len(chunk)
            if progress is not None:
                progress(done, len(tests))

    if workers == 1 or len(chunks) < 2:
        collect(map(run_chunk, chunk_tests, lanes))
    else:
        # Imported here: the pool module adds noticeably to every start-up.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            collect(pool.map(run_chunk, chunk_tests, lanes))
    return tuple(results)


def calibration_curve(
    plant: PlantSpec,
    inputs: RequiredInput,
    max_periods: int = 10,
    shape: ShapeKind = ShapeKind.SINE,
) -> tuple[float, ...]:
    """dnl of the maximally stressful test, per whole-period prefix.

    Runs one test at ``(a_max, f_max)`` with ``max_periods`` repetitions and
    scores the dnl of each prefix of ``k`` whole periods, ``k = 1 ..
    max_periods``.  Prefixes the simulation never reached (divergence) score
    infinity.
    """
    if max_periods < 1:
        raise ValueError("max_periods must be at least 1")
    shape = ShapeKind(shape)
    tg = snap_time_gain(inputs.f_max, inputs.sample_interval)
    case = TestCase(
        shape=shape,
        amp_gain=inputs.a_max,
        time_gain=tg,
        periods=max_periods,
        sample_interval=inputs.sample_interval,
    )
    reference = render_reference(case)
    run = run_plant(plant, reference)
    spp = case.samples_per_period
    curve = []
    for k in range(1, max_periods + 1):
        n = k * spp
        if len(run.trace.output) < n:
            curve.append(math.inf)
            continue
        prefix = Trace(
            reference=run.trace.reference[:n],
            output=run.trace.output[:n],
            sample_interval=inputs.sample_interval,
        )
        curve.append(
            degree_of_nonlinearity(
                prefix, inputs.rho, include_mean_in_scale=inputs.dnl_includes_mean
            )
        )
    return tuple(curve)


def pick_num_periods(
    curve: tuple[float, ...], dnl_threshold: float, max_periods: int
) -> tuple[int, bool]:
    """First prefix length whose dnl exceeds the threshold, plus one period
    of margin, capped at ``max_periods``.  Returns ``(periods, exceeded)``;
    when the threshold is never exceeded the cap is returned with
    ``exceeded=False`` (the caller should warn: even the harshest test looks
    linear, so the repetition count is unconfirmed)."""
    for k, value in enumerate(curve, start=1):
        if value > dnl_threshold:
            return min(k + 1, max_periods), True
    return max_periods, False


def choose_num_periods(
    plant: PlantSpec,
    inputs: RequiredInput,
    max_periods: int = 10,
    shape: ShapeKind = ShapeKind.SINE,
) -> int:
    """Pick how many periods campaign tests should repeat (see module docs)."""
    curve = calibration_curve(plant, inputs, max_periods, shape)
    periods, _ = pick_num_periods(curve, inputs.dnl_threshold, max_periods)
    return periods
