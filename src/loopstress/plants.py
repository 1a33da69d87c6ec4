"""Simulated closed-loop plants with injectable non-linear blocks.

One control loop serves as the testbed: a PI controller with a filtered
derivative on the measurement, driving a first-order linear physics model
``inertia * dv/dt = gain * u + friction - damping * v`` whose output is the
integrated position.  Two parameter sets instantiate it:

* ``drone_alt`` -- altitude axis of a small quadrotor: a point mass pushed
  by thrust against linear air drag (gravity already compensated), under a
  PID controller.  The integrator is deliberately plain -- no anti-windup --
  so saturated tests expose windup as an observable stress behaviour.
* ``dc_servo`` -- voltage-driven DC servo (rotor inertia plus viscous
  damping, voltage -> angle) under state feedback with integral action,
  optionally with a PWM quantiser on the drive voltage.

The loop integrates with semi-implicit Euler at the controller period
(default 1 ms, one controller execution per physics step).  Non-linear
blocks can be attached to the sensor path (range clipping, ADC
quantisation), the actuation path (dead zone, backlash, command saturation)
or the physics itself (coulomb and quadratic friction forces).  Every step
is instrumented: saturation flags plus the absolute deviation each injected
block introduced relative to an ideal linear counterpart, so test outcomes
can be attributed to specific non-linearities afterwards.  The specs and
blocks (``PlantSpec``, ``NonlinearBlock``, ``drone_spec``, ``dc_servo_spec``)
are defined in :mod:`loopstress.records`; this module simulates them.

One stepper runs the loop: ``stepper.c``, compiled at first use with
``gcc`` into the package's ``__pycache__`` (see :func:`load_kernel`).  One
call of it steps several runs of one spec as interleaved lanes, whose
references repeat one period at their own amplitudes (:func:`run_lanes`);
:func:`run_plant` is the call of one lane.  The stepper writes the whole
log of a step as it takes it: the output, the actuation, the saturation
flags and the deviation.  Where it cannot be built, every simulation raises
``OSError``.
"""

from __future__ import annotations

import math
import os
from typing import NamedTuple

import numpy as np

from .records import _BLOCKS, _MODELS, PlantSpec
from .spectral import Trace

__all__ = [
    "InstrumentationLog",
    "PlantRun",
    "LaneRuns",
    "run_plant",
    "run_lanes",
    "load_kernel",
]


class InstrumentationLog(NamedTuple):
    """Per-step flags and deviations recorded alongside the trace.

    ``nonlinearity_deviation`` sums, over the injected blocks (dead zone,
    backlash, coulomb and quadratic friction), the absolute difference
    between each block's output and what its linear counterpart would have
    produced: identity for dead zone/backlash, zero force for coulomb
    friction, and a linear drag matched at the declared nominal speed for
    quadratic friction.  Saturations are tracked by the flags instead, and
    quantisation affects every step alike so it is not scored.
    """

    actuator_saturated: np.ndarray
    sensor_saturated: np.ndarray
    nonlinearity_deviation: np.ndarray
    actuation: np.ndarray

    @property
    def actuator_saturation_fraction(self) -> float:
        return float(np.mean(self.actuator_saturated))

    @property
    def sensor_saturation_fraction(self) -> float:
        return float(np.mean(self.sensor_saturated))

    @property
    def mean_deviation(self) -> float:
        return float(np.mean(self.nonlinearity_deviation))


class PlantRun(NamedTuple):
    """Outcome of one closed-loop simulation."""

    trace: Trace
    log: InstrumentationLog
    diverged: bool


class LaneRuns(NamedTuple):
    """Outcome of :func:`run_lanes`: lane ``k`` is the run of ``amplitudes[k]``.

    ``output`` holds one row per lane: a lane that did not diverge fills its
    row, and a diverged one only its first ``len(logs[k].actuation)``
    entries, the rest of the row being undefined.  Each log's arrays are
    views of the rows the stepper wrote.
    """

    output: np.ndarray
    diverged: tuple[bool, ...]
    logs: tuple[InstrumentationLog, ...]


def _checked_reference(reference, periods: int) -> tuple[np.ndarray, float]:
    """``reference`` as a contiguous float array, as the compiled stepper
    reads it, and the largest magnitude of the series that repeats it
    ``periods`` times."""
    ref = np.asarray(reference, dtype=float)
    if ref.ndim != 1 or periods < 1 or len(ref) * periods < 2:
        raise ValueError("reference must be 1-D with at least two samples")
    if not np.all(np.isfinite(ref)):
        raise ValueError("reference contains non-finite samples")
    return np.ascontiguousarray(ref), float(np.max(np.abs(ref)))


def run_plant(spec: PlantSpec, reference: np.ndarray) -> PlantRun:
    """Simulate the closed loop over ``reference`` and return the instrumented run.

    The loop per step: read the sensor (saturation, then quantisation),
    execute the controller, shape the command through the actuation-path
    blocks (dead zone, backlash, saturation, then the PWM quantiser when
    ``pwm_step > 0``), then advance the physics by one semi-implicit Euler
    step including any friction blocks.  The run is deterministic.  If the
    output magnitude exceeds ``1e6`` times the largest reference value (or
    turns non-finite) the simulation stops and the run is flagged diverged,
    with the trace truncated to the completed steps.  The first step is
    never checked, so a state that overflows in it leaves a non-finite
    output, which raises ``ValueError`` as a non-finite reference does.
    """
    ref = np.asarray(reference, dtype=float)
    # One lane whose period is the whole reference, at amplitude 1.0: its
    # reference is ``1.0 * ref``, the same bits.
    lanes = run_lanes(spec, ref, [1.0], 1)
    log = lanes.logs[0]
    m = len(log.actuation)
    trace = Trace(reference=ref[:m], output=lanes.output[0, :m], sample_interval=spec.sample_interval)
    return PlantRun(trace=trace, log=log, diverged=lanes.diverged[0])


def run_lanes(spec: PlantSpec, period: np.ndarray, amplitudes, periods: int) -> LaneRuns:
    """The runs of ``run_plant(spec, a * np.tile(period, periods))`` for each
    ``a`` of ``amplitudes``, with the same bits, from one call of the
    stepper, which steps them as interleaved lanes.

    No reference is rendered: lane ``k``'s sample ``i`` is ``amplitudes[k] *
    period[i % len(period)]``, the one multiply that rendering makes.  A
    reference that ``run_plant`` rejects raises the same ``ValueError``.
    """
    u, peak = _checked_reference(period, periods)
    amps = np.array(amplitudes, dtype=float).reshape(-1)
    limits = []
    # On Python floats, which overflow to infinity without a warning.
    for a in amps.tolist():
        lane_peak = abs(a) * peak  # max |a * u|: rounding is monotone
        if not math.isfinite(lane_peak):
            raise ValueError("reference contains non-finite samples")
        limits.append(1e6 * lane_peak if lane_peak > 0.0 else math.inf)  # flags divergence
    p, blocks = _loop(spec)
    lanes, n = len(amps), len(u) * periods
    out, act, dev = np.empty((3, lanes, n))
    a_sat, s_sat = np.empty((2, lanes, n), dtype=bool)
    steps = np.empty(lanes, dtype="l")  # C long
    diverged = np.empty(lanes, dtype=np.intc)
    load_kernel()(p, blocks, u, len(u), n, lanes, amps, np.array(limits),
                  out, act, a_sat, s_sat, dev, steps, diverged)
    logs = []
    for k, m in enumerate(steps.tolist()):
        if not np.all(np.isfinite(out[k, :m])):
            raise ValueError("trace contains non-finite samples")  # as Trace does
        logs.append(InstrumentationLog(
            actuator_saturated=a_sat[k, :m], sensor_saturated=s_sat[k, :m],
            nonlinearity_deviation=dev[k, :m], actuation=act[k, :m],
        ))
    return LaneRuns(output=out, diverged=tuple(bool(d) for d in diverged), logs=tuple(logs))


# The command that builds ``stepper.c``: that file says why these flags and
# no others.
_COMPILE = ("gcc", "-O2", "-fPIC", "-shared", "-ffp-contract=off")
_kernel = None  # the loaded stepper


def load_kernel():
    """The compiled stepper, built and loaded at its first use in this
    process.  If that fails it raises ``OSError`` with one line that names
    the compile command and the cause, and a later call tries again.

    The shared object is cached in the package's ``__pycache__`` under the
    sha256 of the C source, the compiler command and the machine, so a
    checkout builds it once.  A build writes to a temporary name and renames
    the file into place, so processes that build at once never load a
    half-written file.  Where ``__pycache__`` is not writable, each process
    builds in a private temporary directory.  Call this before forking
    workers, so that they inherit the loaded library.
    """
    global _kernel
    if _kernel is None:
        try:
            _kernel = _build_and_load()
        except OSError as exc:
            raise OSError(f"cannot build the stepper with `{' '.join(_COMPILE)}`: {exc}") from exc
    return _kernel


def _build_and_load():
    """``simulate`` of the cached shared object, which is built if missing.

    A failed build raises ``OSError``.  The modules that only a build needs
    are imported on the build's path: a process that loads the cached
    object does not pay for them.
    """
    import hashlib
    import platform

    here = os.path.dirname(os.path.abspath(__file__))
    source = os.path.join(here, "stepper.c")
    with open(source, "rb") as fh:
        key = hashlib.sha256(b"\0".join(
            [fh.read(), " ".join(_COMPILE).encode(), platform.machine().encode()]
        )).hexdigest()[:16]
    cache = os.path.join(here, "__pycache__")
    shared = os.path.join(cache, f"stepper-{key}.so")
    if not os.path.exists(shared):
        try:
            os.makedirs(cache, exist_ok=True)
        except OSError:
            pass
        if not os.access(cache, os.W_OK):
            import tempfile

            with tempfile.TemporaryDirectory() as private:
                shared = os.path.join(private, "stepper.so")
                _compile(source, shared)
                return _load(shared)  # a loaded library outlives its file
        _compile(source, shared)
    return _load(shared)


def _compile(source: str, target: str) -> None:
    import subprocess

    partial = f"{target}.{os.getpid()}.tmp"
    try:
        subprocess.run([*_COMPILE, "-o", partial, source, "-lm"], check=True, capture_output=True)
        os.replace(partial, target)
    except subprocess.CalledProcessError as exc:  # the compiler failed: its first line says why
        raise OSError((exc.stderr.decode(errors="replace").splitlines() or [str(exc)])[0]) from exc
    finally:
        if os.path.exists(partial):
            os.unlink(partial)


def _load(path: str):
    import ctypes

    from numpy.ctypeslib import ndpointer

    doubles = ndpointer(np.float64, flags="C_CONTIGUOUS")
    flags = ndpointer(np.bool_, flags="C_CONTIGUOUS")
    simulate = ctypes.CDLL(path).simulate
    simulate.argtypes = [
        doubles, ctypes.c_int, doubles, ctypes.c_long, ctypes.c_long, ctypes.c_long, doubles,
        doubles, doubles, doubles, flags, flags, doubles,
        ndpointer(ctypes.c_long, flags="C_CONTIGUOUS"), ndpointer(np.intc, flags="C_CONTIGUOUS"),
    ]
    simulate.restype = None
    return simulate


def _loop(spec: PlantSpec) -> tuple[np.ndarray, int]:
    """The stepper's ``p`` and ``blocks`` for ``spec``: ``p`` holds dt, the
    roles, alpha, pwm_step, each kind's parameters in ``_BLOCKS`` order (0.0
    for a kind not attached; slot 13, the backlash play, is halved by the
    stepper) and quad_lin."""
    dt = spec.sample_interval
    params = {None: 1.0, **spec.physical, **spec.controller}  # a role None is 1.0
    blocks = {b.kind: b.params for b in spec.blocks}
    p = [dt, *(params[role] for role in _MODELS[spec.model]["roles"]),
         dt / (params["deriv_tau"] + dt), params.get("pwm_step", 0.0)]  # alpha, pwm_step
    for kind, block in _BLOCKS.items():
        p += (blocks[kind][name] if kind in blocks else 0.0 for name in block.params)
    p.append(p[-1] * abs(params["nominal_speed"]))  # quad_lin; p[-1] is quad, the last one
    return np.array(p), sum(_BLOCKS[kind].bit for kind in blocks)

