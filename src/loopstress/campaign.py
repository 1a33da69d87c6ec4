"""Campaign planning and execution.

A campaign stresses one control loop over a frequency range ``[f_min,
f_max]`` with amplitudes up to ``a_max``, at resolution ``delta_a``:

1. *Calibrate* how many periods each test repeats
   (:func:`calibration_curve`, :func:`pick_num_periods`) from the run
   stage's dnl of the harshest test at each repetition count: repetitions
   insert DFT bins between the reference harmonics, which is what makes
   non-periodic behaviour visible, but longer tests cost simulation time.
2. *Bound* the linear envelope (:func:`optimistic_amplitude_bound`):
   per frequency, a sinusoidal binary search finds the largest amplitude
   whose dnl stays under the threshold; frequencies are refined in rounds
   where adjacent bounds disagree by more than ``delta_a``, on the grid of
   snapped periods.
3. *Generate* the test set (:func:`generate_test_set`): a uniform frequency
   grid, all requested shapes, amplitudes drawn under the interpolated
   bound -- skewed toward the bound, where the interesting behaviour is.
4. *Execute* (:func:`execute_campaign`): run every test, score dnl, the
   per-component degree of filtering (for linear tests), saturation
   fractions and the injected-non-linearity deviation.  Tests that repeat
   one unit reference (shape, samples per period, periods) at their own
   amplitudes run as the lanes of one :func:`loopstress.plants.run_lanes`
   call and are scored from that reference's one spectrum; chunks of
   tests, cut by steps, are the units of work of the process pool, the
   only one any stage starts.

Every stage simulates and scores along that one path: a bound probe is a
block of one sine test (``_run_block``), calibration a chunk of one test
per repetition count (``_run_chunk``).  No stage renders a reference.
The inputs and records the stages pass on (``RequiredInput``,
``AmplitudeBoundMap``, ``TestSet``, ``TestResult``) are defined in
:mod:`loopstress.records`.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from . import spectral
from .plants import load_kernel, run_lanes
from .records import (
    AmplitudeBoundMap,
    BoundRefinementError,
    Component,
    GeneratedTest,
    PlantSpec,
    RequiredInput,
    SamplingError,
    TestResult,
    TestSet,
)
from .signals import (
    ShapeKind,
    TestCase,
    snap_time_gain,
    unit_period,
)
# ``run_plant``, ``render_reference``, ``fa_map``, ``degree_of_nonlinearity``
# and ``dof_profile`` are imported for callers that look them up here
# (perfbench/tracer.py wraps them by name); every stage simulates through
# ``run_lanes`` and scores from spectra.
from .plants import run_plant  # noqa: F401
from .signals import render_reference  # noqa: F401
from .spectral import degree_of_nonlinearity, dof_profile, fa_map  # noqa: F401

__all__ = [
    "binary_search_upperbound",
    "optimistic_amplitude_bound",
    "derive_frequency_resolution",
    "generate_test_set",
    "execute_campaign",
    "calibration_curve",
    "pick_num_periods",
]


def _case(inputs: RequiredInput, shape, frequency: float, amplitude: float,
          periods: int | None = None) -> TestCase:
    """``shape`` at ``frequency``, snapped to whole samples per period, and
    ``amplitude``, over ``periods`` (default ``inputs.base_periods``)."""
    return TestCase(
        shape=shape,
        amp_gain=amplitude,
        time_gain=snap_time_gain(frequency, inputs.sample_interval),
        periods=inputs.base_periods if periods is None else periods,
        sample_interval=inputs.sample_interval,
    )


def _check_sampling(plant: PlantSpec, sample_interval: float, what: str = "input") -> None:
    if plant.sample_interval != sample_interval:
        raise SamplingError(
            f"{what} and plant sample intervals differ "
            f"({sample_interval} vs {plant.sample_interval})"
        )


def _sine_probe(plant: PlantSpec, inputs: RequiredInput):
    """Real probe: dnl of a sinusoidal test at (frequency, amplitude), the
    run stage's dnl of that test (:func:`_run_block`).

    A search probes one frequency, so the probe keeps the unit sine and its
    spectrum at the last period it saw, and transforms only each probe's
    output.
    """
    if plant is None:
        raise ValueError("need either a plant or a probe")
    _check_sampling(plant, inputs.sample_interval)
    unit = None  # (samples per period, its unit sine, that sine's spectrum)

    def probe(frequency: float, amplitude: float) -> float:
        nonlocal unit
        case = _case(inputs, ShapeKind.SINE, frequency, amplitude)
        spp = case.samples_per_period
        if unit is None or unit[0] != spp:
            period = unit_period(case.shape, spp)
            unit = spp, period, spectral.tiled_spectrum(period, case.periods, inputs.sample_interval)
        test = GeneratedTest(case, frequency, amplitude, 0.0)  # scored by its case alone
        return _run_block(plant, inputs, [test], unit[1], unit[2])[0].dnl

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
    progress=None,
) -> AmplitudeBoundMap:
    """Sample the linear amplitude envelope over ``[f_min, f_max]``.

    Starts from the range endpoints, then refines in rounds: each round
    splits every adjacent frequency pair whose bound gap exceeds
    ``delta_a`` at its geometric mean.  Pairs whose midpoint collapses onto
    an endpoint on the grid the search runs on are reported as
    ``unresolved``: with the sine probe (``probe`` None) that grid is the
    snapped period, since the probe snaps every frequency to whole samples
    per period, and every frequency a split adds has a period of its own;
    with a custom probe it is the float itself.  A split depends only on its
    own pair, so the map is the one that splitting one pair at a time would
    give.  If a round would take the map past ``max_frequencies``, only its
    largest-gap splits that fit are searched (ties go to the lower
    frequency), and
    :class:`BoundRefinementError` is raised carrying that partial map.

    ``probes`` counts the simulations that ran, all in this process.
    ``progress(round, frequencies, probes)``, if given, is called after each
    round.
    """
    if probe is None and plant is None:
        raise ValueError("need either a plant or a probe")
    if max_frequencies < 2:
        raise ValueError("max_frequencies must be at least 2")  # a map holds both ends
    bounds: dict[float, float] = {}
    closed: set[tuple[float, float]] = set()
    # The grid a search runs on: with the sine probe, the snapped period.
    if probe is None:
        probe = _sine_probe(plant, inputs)
        key = functools.partial(snap_time_gain, sample_interval=inputs.sample_interval)
    else:
        key = float
    probes = rounds = 0

    def counted(frequency: float, amplitude: float) -> float:
        nonlocal probes
        probes += 1
        return probe(frequency, amplitude)

    def build() -> AmplitudeBoundMap:
        fs = tuple(sorted(bounds))
        return AmplitudeBoundMap(
            frequencies=fs,
            bounds=tuple(bounds[f] for f in fs),
            unresolved=tuple(sorted(closed)),
            probes=probes,
        )

    def refine(frequencies) -> None:
        """Search the bound at each of ``frequencies``: one round."""
        nonlocal rounds
        for f in frequencies:
            bounds[f] = binary_search_upperbound(plant, f, inputs, counted)
        rounds += 1
        if progress is not None:
            progress(rounds, len(bounds), probes)

    refine((inputs.f_min, inputs.f_max))
    while True:
        fs = sorted(bounds)
        splits = []  # (gap, f_lo, midpoint, f_hi)
        for f_lo, f_hi in zip(fs, fs[1:]):
            gap = abs(bounds[f_lo] - bounds[f_hi])
            if gap <= inputs.delta_a or (f_lo, f_hi) in closed:
                continue
            f_new = math.sqrt(f_lo * f_hi)
            if key(f_lo) < key(f_new) < key(f_hi):
                splits.append((gap, f_lo, f_new, f_hi))
            else:
                closed.add((f_lo, f_hi))
        if not splits:
            return build()
        room = max(0, max_frequencies - len(bounds))
        if len(splits) > room:
            splits.sort(key=lambda s: (-s[0], s[1]))
            if room:
                refine([s[2] for s in splits[:room]])
            gap, f_lo, _, f_hi = splits[room]
            raise BoundRefinementError(
                f"bound refinement exceeded {max_frequencies} frequencies; "
                f"widest remaining gap {gap:g} between {f_lo:g} and {f_hi:g} Hz",
                build(),
            )
        refine([s[2] for s in splits])


def derive_frequency_resolution(bound_map: AmplitudeBoundMap) -> float:
    """Mean gap between consecutive sampled frequencies."""
    fs = bound_map.frequencies
    return float((fs[-1] - fs[0]) / (len(fs) - 1))


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
            for x in draws:
                case = _case(inputs, shape, f, float(max(x, 1e-12) * bound))
                tests.append(GeneratedTest(case, f, bound, abs(case.time_gain - f)))
    return TestSet(tests=tuple(tests), seed=seed, frequency_step=df, shapes=shapes)


# Steps per run chunk, the pool's unit of work.  Simulating and scoring
# 1,000,000 steps of the dc_servo campaign with friction and a quantiser, or
# of drone_desk, took 0.18-0.21 s of CPU on a 2-vCPU VM that runs
# perfbench's probe 1.7 times slower than its reference host: about 0.12
# reference seconds, well above what starting a process pool costs.  A run
# with less than two chunks of work runs in-process.
_CHUNK_STEPS = 1_000_000

# Bytes of the outputs that one ``dft_amplitude`` call of the run stage
# scores: a block holds the outputs of tests that share a unit reference,
# whose spectrum is computed once per group (see ``_run_chunk``).  Batched
# rows cost several times less per row than one call each, and a larger
# block saves little more while it adds to the peak memory: the stepper
# also writes each lane's actuation, two flags and deviation, 8 + 1 + 1 + 8
# bytes per sample against the output's 8.
_BLOCK_BYTES = 2**19


def _steps(test: GeneratedTest) -> int:
    return test.case.periods * test.case.samples_per_period


def _run_block(plant: PlantSpec, inputs: RequiredInput, tests, period: np.ndarray,
               unit: spectral.Spectrum) -> list[TestResult]:
    """Results of ``tests``, sampled like the plant, which all repeat the
    unit reference ``period`` (one period of their shape at amplitude 1) as
    often; ``unit`` is the reference's spectrum
    (:func:`spectral.tiled_spectrum`).

    One :func:`run_lanes` call simulates every test as a lane, and no
    reference is rendered.  One ``dft_amplitude`` call gives the spectrum
    of each output of a run that did not diverge, the same bits as a call
    per output; a diverged run has no output spectrum, and a block of
    diverged runs makes no call.  A test's reference spectrum is its
    amplitude times ``unit``, and the test is scored as
    ``spectral.components``, ``dnl_of_spectra`` and (for a linear run)
    ``dof_of_spectrum`` score those spectra.
    """
    amplitudes = [test.case.amp_gain for test in tests]
    lanes = run_lanes(plant, period, amplitudes, tests[0].case.periods)
    live = [not diverged for diverged in lanes.diverged]
    out_rows = iter(())
    if any(live):
        rows = lanes.output if all(live) else lanes.output[live]
        out_rows = iter(spectral.dft_amplitude(rows, plant.sample_interval).amplitudes)
    results = []
    for test, amplitude, diverged, log in zip(tests, amplitudes, lanes.diverged, lanes.logs):
        ref_spec = spectral.Spectrum(unit.frequencies, amplitude * unit.amplitudes)
        comps = spectral.components(ref_spec, inputs.rho)
        if diverged:
            dnl = math.inf
            dof = {}
        else:
            out_spec = spectral.Spectrum(unit.frequencies, next(out_rows))
            dnl = spectral.dnl_of_spectra(ref_spec, out_spec, inputs.rho)
            dof = spectral.dof_of_spectrum(comps, out_spec) if dnl < inputs.dnl_threshold else {}
        components = tuple(
            Component(frequency=float(f), amplitude=float(a), dof=dof.get(float(f)))
            for f, a in zip(comps.frequencies, comps.amplitudes)
        )
        results.append(TestResult(
            test=test,
            dnl=dnl,
            components=components,
            actuator_saturation_fraction=log.actuator_saturation_fraction,
            sensor_saturation_fraction=log.sensor_saturation_fraction,
            deviation_mean=log.mean_deviation,
            diverged=diverged,
        ))
    return results


def _run_chunk(plant: PlantSpec, inputs: RequiredInput, tests) -> list[TestResult]:
    """Results of ``tests``, in order.

    Each run of consecutive tests with equal samples per period, periods and
    shape repeats one unit reference: one ``rfft`` of its one period gives
    that reference's spectrum, and the run is simulated and scored in blocks
    of at most ``_BLOCK_BYTES`` of outputs (at least one test each).
    """
    results = []
    for (spp, periods, shape), group in itertools.groupby(
        tests, key=lambda t: (t.case.samples_per_period, t.case.periods, t.case.shape)
    ):
        group = list(group)
        period = unit_period(shape, spp)
        unit = spectral.tiled_spectrum(period, periods, plant.sample_interval)
        per_block = max(1, _BLOCK_BYTES // (8 * spp * periods))
        for i in range(0, len(group), per_block):
            results.extend(_run_block(plant, inputs, group[i:i + per_block], period, unit))
    return results


def _chunks(tests) -> list[list[int]]:
    """Indices of ``tests`` cut into run chunks of at least ``_CHUNK_STEPS``
    steps (fewer only when all the tests together have fewer), longest tests
    first, so no long test is left for the pool's end and equally long
    tests are adjacent."""
    lengths = [_steps(t) for t in tests]
    chunks, steps = [], _CHUNK_STEPS
    for i in sorted(range(len(tests)), key=lambda i: -lengths[i]):
        if steps >= _CHUNK_STEPS:
            chunks.append([])
            steps = 0
        chunks[-1].append(i)
        steps += lengths[i]
    if len(chunks) > 1 and steps < _CHUNK_STEPS:
        chunks[-2].extend(chunks.pop())  # the remainder joins the last full chunk
    return chunks


def execute_campaign(
    plant: PlantSpec,
    tests,
    inputs: RequiredInput,
    workers: int = 1,
    progress=None,
) -> tuple[TestResult, ...]:
    """Run every generated test; results keep the test order.

    Tests that repeat one unit reference at their own amplitudes are
    simulated together, as the lanes of one :func:`run_lanes` call, without
    rendering a reference, and scored from that reference's one spectrum
    and a shared block of output spectra (see ``_run_chunk``).  A test
    sampled unlike the plant raises :class:`SamplingError`.  Tests are cut into
    chunks of at least ``_CHUNK_STEPS`` steps, and with ``workers > 1`` and
    at least two chunks the chunks go to a process pool of at most
    ``workers`` processes, longest tests first; less work runs in this
    process, where it costs less than starting a pool.  Each test is an
    independent deterministic simulation, so the outcome is identical for
    any ``workers`` count; workers only trade wall time.
    ``progress(done, total)``, if given, is called with the number of tests
    collected after each chunk.
    """
    if isinstance(tests, TestSet):
        tests = tests.tests
    tests = tuple(tests)
    if workers < 1:
        raise ValueError("workers must be at least 1")
    _check_sampling(plant, inputs.sample_interval)
    for dt in {t.case.sample_interval for t in tests}:
        _check_sampling(plant, dt, "test")
    load_kernel()  # before the pool forks, so its workers inherit it
    chunks = _chunks(tests)
    run_chunk = functools.partial(_run_chunk, plant, inputs)
    chunk_tests = [[tests[i] for i in chunk] for chunk in chunks]
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
        collect(map(run_chunk, chunk_tests))
    else:
        # Imported here: the pool module adds noticeably to every start-up.
        from concurrent.futures import ProcessPoolExecutor

        # Under fork every worker starts up front, so none beyond the chunks.
        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            collect(pool.map(run_chunk, chunk_tests))
    return tuple(results)


def calibration_curve(
    plant: PlantSpec,
    inputs: RequiredInput,
    max_periods: int = 10,
    shape: ShapeKind = ShapeKind.SINE,
) -> tuple[float, ...]:
    """dnl of the maximally stressful test, per repetition count.

    Entry ``k - 1`` is the run stage's dnl (:func:`_run_block`) of the test
    at ``(f_max, a_max)`` that repeats its period ``k`` times, ``k = 1 ..
    max_periods``: infinity if it diverges.  The tests simulate
    ``max_periods * (max_periods + 1) / 2`` periods in all.
    """
    if max_periods < 1:
        raise ValueError("max_periods must be at least 1")
    _check_sampling(plant, inputs.sample_interval)
    tests = [
        GeneratedTest(_case(inputs, shape, inputs.f_max, inputs.a_max, k),
                      inputs.f_max, inputs.a_max, 0.0)
        for k in range(1, max_periods + 1)
    ]
    return tuple(r.dnl for r in _run_chunk(plant, inputs, tests))


def pick_num_periods(
    curve: tuple[float, ...], dnl_threshold: float, max_periods: int
) -> tuple[int, bool]:
    """First repetition count whose dnl exceeds the threshold, plus one period
    of margin, capped at ``max_periods``.  Returns ``(periods, exceeded)``;
    when the threshold is never exceeded the cap is returned with
    ``exceeded=False`` (the caller should warn: even the harshest test looks
    linear, so the repetition count is unconfirmed)."""
    for k, value in enumerate(curve, start=1):
        if value > dnl_threshold:
            return min(k + 1, max_periods), True
    return max_periods, False
