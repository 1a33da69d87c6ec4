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
can be attributed to specific non-linearities afterwards.

Two steppers run the loop: ``_simulate`` one reference at a time and
``_step_lanes`` many in lockstep, with the same float operations.  Both only
step: they keep the outputs and velocities, and of the instrumentation only
what depends on the command inside a step.  One post-pass,
``_instrument``, derives the sensor flags and the deviation log from those.
"""

from __future__ import annotations

import collections
import itertools
import math
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .spectral import Trace

__all__ = [
    "BLOCK_KINDS",
    "NonlinearBlock",
    "actuator_saturation",
    "sensor_saturation",
    "quantizer",
    "dead_zone",
    "backlash",
    "coulomb_friction",
    "quadratic_friction",
    "PlantSpec",
    "drone_spec",
    "dc_servo_spec",
    "InstrumentationLog",
    "PlantRun",
    "run_plant",
    "LaneRun",
    "lane_step_bytes",
    "run_lanes",
]

# kind -> required parameter names
BLOCK_KINDS: dict[str, tuple[str, ...]] = {
    "actuator_saturation": ("lo", "hi"),
    "sensor_saturation": ("lo", "hi"),
    "quantizer": ("step",),
    "dead_zone": ("half_width",),
    "backlash": ("play",),
    "coulomb_friction": ("level",),
    "quadratic_friction": ("coef",),
}


@dataclass(frozen=True)
class NonlinearBlock:
    """One non-linear element, identified by kind plus its parameters."""

    kind: str
    params: dict[str, float]

    def __post_init__(self):
        if self.kind not in BLOCK_KINDS:
            raise ValueError(f"unknown block kind {self.kind!r}")
        wanted = set(BLOCK_KINDS[self.kind])
        got = set(self.params)
        if got != wanted:
            raise ValueError(
                f"{self.kind} expects parameters {sorted(wanted)}, got {sorted(got)}"
            )
        object.__setattr__(
            self, "params", {k: float(v) for k, v in self.params.items()}
        )
        p = self.params
        if self.kind.endswith("saturation") and not p["lo"] < p["hi"]:
            raise ValueError("saturation needs lo < hi")
        if self.kind == "quantizer" and p["step"] <= 0.0:
            raise ValueError("quantizer step must be positive")
        if self.kind == "dead_zone" and p["half_width"] < 0.0:
            raise ValueError("dead zone half width must be non-negative")
        if self.kind == "backlash" and p["play"] < 0.0:
            raise ValueError("backlash play must be non-negative")
        if self.kind == "coulomb_friction" and p["level"] < 0.0:
            raise ValueError("friction level must be non-negative")
        if self.kind == "quadratic_friction" and p["coef"] < 0.0:
            raise ValueError("friction coefficient must be non-negative")


def actuator_saturation(lo: float, hi: float) -> NonlinearBlock:
    return NonlinearBlock("actuator_saturation", {"lo": lo, "hi": hi})


def sensor_saturation(lo: float, hi: float) -> NonlinearBlock:
    return NonlinearBlock("sensor_saturation", {"lo": lo, "hi": hi})


def quantizer(step: float) -> NonlinearBlock:
    return NonlinearBlock("quantizer", {"step": step})


def dead_zone(half_width: float) -> NonlinearBlock:
    return NonlinearBlock("dead_zone", {"half_width": half_width})


def backlash(play: float) -> NonlinearBlock:
    return NonlinearBlock("backlash", {"play": play})


def coulomb_friction(level: float) -> NonlinearBlock:
    return NonlinearBlock("coulomb_friction", {"level": level})


def quadratic_friction(coef: float) -> NonlinearBlock:
    return NonlinearBlock("quadratic_friction", {"coef": coef})


_MODEL_DEFAULTS = {
    "drone_alt": {
        "physical": {"mass": 0.1, "drag": 1.0, "nominal_speed": 1.0},
        "controller": {"kp": 3.0, "ki": 2.0, "kd": 0.0, "deriv_tau": 0.0},
    },
    "dc_servo": {
        "physical": {
            "inertia": 0.01,
            "damping": 0.02,
            "torque_const": 0.05,
            "nominal_speed": 1.0,
            "pwm_step": 0.0,  # >0 replaces PWM by duty-cycle quantisation
        },
        "controller": {"k_pos": 3.7, "k_int": 2.0, "k_vel": 0.8, "deriv_tau": 0.01},
    },
}

# Which parameter plays each role in the shared loop
#     u = P*e + integral - D*filtered_derivative,
#     v += (gain*u + friction - damping*v) / inertia * dt,
# as (gain, damping, inertia, P, I, D).  The drone's thrust acts on its mass
# directly, so its gain is None, meaning the constant 1.0.
_LOOP_ROLES = {
    "drone_alt": (None, "drag", "mass", "kp", "ki", "kd"),
    "dc_servo": ("torque_const", "damping", "inertia", "k_pos", "k_int", "k_vel"),
}


@dataclass(frozen=True)
class PlantSpec:
    """Fully describes a simulated loop: model, parameters, blocks, sampling.

    Missing physical/controller entries are filled with the model defaults;
    unknown entries are rejected.  At most one block of each kind may be
    attached.
    """

    model: str
    physical: dict[str, float] = field(default_factory=dict)
    controller: dict[str, float] = field(default_factory=dict)
    blocks: tuple[NonlinearBlock, ...] = ()
    sample_interval: float = 0.001

    def __post_init__(self):
        if self.model not in _MODEL_DEFAULTS:
            raise ValueError(f"unknown plant model {self.model!r}")
        defaults = _MODEL_DEFAULTS[self.model]
        for attr in ("physical", "controller"):
            given = dict(getattr(self, attr))
            allowed = defaults[attr]
            unknown = set(given) - set(allowed)
            if unknown:
                raise ValueError(
                    f"unknown {attr} parameters for {self.model}: {sorted(unknown)}"
                )
            merged = {**allowed, **{k: float(v) for k, v in given.items()}}
            object.__setattr__(self, attr, merged)
        blocks = tuple(self.blocks)
        object.__setattr__(self, "blocks", blocks)
        kinds = [b.kind for b in blocks]
        if len(kinds) != len(set(kinds)):
            raise ValueError("at most one block of each kind may be attached")
        if self.sample_interval <= 0.0:
            raise ValueError("sample_interval must be positive")
        if self.physical.get("mass", 1.0) <= 0.0:
            raise ValueError("mass must be positive")
        if self.physical.get("drag", 0.0) < 0.0:
            raise ValueError("drag must be non-negative")
        if self.physical.get("inertia", 1.0) <= 0.0:
            raise ValueError("inertia must be positive")


def _split_overrides(model: str, overrides: dict) -> tuple[dict, dict]:
    """Sort flat keyword overrides into the model's physical and controller sets."""
    defaults = _MODEL_DEFAULTS[model]
    physical = {k: v for k, v in overrides.items() if k in defaults["physical"]}
    controller = {k: v for k, v in overrides.items() if k in defaults["controller"]}
    leftovers = set(overrides) - set(physical) - set(controller)
    if leftovers:
        raise ValueError(f"unknown {model} parameters: {sorted(leftovers)}")
    return physical, controller


def drone_spec(
    thrust_limit: float = 2.0,
    extra_blocks: tuple[NonlinearBlock, ...] = (),
    sample_interval: float = 0.001,
    **param_overrides,
) -> PlantSpec:
    """Quadrotor altitude loop with symmetric thrust saturation (default 2 N)."""
    blocks = ()
    if thrust_limit > 0.0:
        blocks = (actuator_saturation(-thrust_limit, thrust_limit),)
    physical, controller = _split_overrides("drone_alt", param_overrides)
    return PlantSpec(
        model="drone_alt",
        physical=physical,
        controller=controller,
        blocks=blocks + tuple(extra_blocks),
        sample_interval=sample_interval,
    )


def dc_servo_spec(
    voltage_limit: float = 10.0,
    sensor_range: float = 4.0 * math.pi,
    adc_step: float = 2.0 * math.pi / 4096.0,
    extra_blocks: tuple[NonlinearBlock, ...] = (),
    sample_interval: float = 0.001,
    **param_overrides,
) -> PlantSpec:
    """DC servo loop: voltage-limited drive, range-limited and quantised encoder."""
    blocks: tuple[NonlinearBlock, ...] = ()
    if voltage_limit > 0.0:
        blocks += (actuator_saturation(-voltage_limit, voltage_limit),)
    if sensor_range > 0.0:
        blocks += (sensor_saturation(-sensor_range, sensor_range),)
    if adc_step > 0.0:
        blocks += (quantizer(adc_step),)
    physical, controller = _split_overrides("dc_servo", param_overrides)
    return PlantSpec(
        model="dc_servo",
        physical=physical,
        controller=controller,
        blocks=blocks + tuple(extra_blocks),
        sample_interval=sample_interval,
    )


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


def _checked_reference(reference) -> tuple[np.ndarray, float]:
    """``reference`` as a float array, with the output limit that flags divergence."""
    ref = np.asarray(reference, dtype=float)
    if ref.ndim != 1 or len(ref) < 2:
        raise ValueError("reference must be 1-D with at least two samples")
    if not np.all(np.isfinite(ref)):
        raise ValueError("reference contains non-finite samples")
    peak = float(np.max(np.abs(ref)))
    return ref, 1e6 * peak if peak > 0.0 else math.inf


def run_plant(spec: PlantSpec, reference: np.ndarray) -> PlantRun:
    """Simulate the closed loop over ``reference`` and return the instrumented run.

    The loop per step: read the sensor (saturation, then quantisation),
    execute the controller, shape the command through the actuation-path
    blocks (dead zone, backlash, saturation, then the PWM quantiser when
    ``pwm_step > 0``), then advance the physics by one semi-implicit Euler
    step including any friction blocks.  The run is deterministic.  If the
    output magnitude exceeds ``1e6`` times the largest reference value (or
    turns non-finite) the simulation stops and the run is flagged diverged,
    with the trace truncated to the completed steps.
    """
    ref, limit = _checked_reference(reference)
    c = _loop(spec)
    out, vel, act, a_sat, shaping_dev, diverged = _simulate(c, ref.tolist(), limit)
    out = np.asarray(out, dtype=float)
    s_sat, dev = _instrument(c, out, np.asarray(vel), np.asarray(shaping_dev))
    trace = Trace(reference=ref[:len(out)], output=out, sample_interval=spec.sample_interval)
    log = InstrumentationLog(
        actuator_saturated=np.asarray(a_sat, dtype=bool),
        sensor_saturated=s_sat,
        nonlinearity_deviation=dev,
        actuation=np.asarray(act, dtype=float),
    )
    return PlantRun(trace=trace, log=log, diverged=diverged)


def _loop(spec: PlantSpec) -> SimpleNamespace:
    """The shared loop's scalars for ``spec``; a block's entries are None
    when the block is absent."""
    dt = spec.sample_interval
    params = {**spec.physical, **spec.controller}
    gain_key, damping_key, inertia_key, p_key, i_key, d_key = _LOOP_ROLES[spec.model]
    blocks = {b.kind: b.params for b in spec.blocks}

    def block_param(kind, name):
        return blocks[kind][name] if kind in blocks else None

    play = block_param("backlash", "play")
    quad = block_param("quadratic_friction", "coef")
    return SimpleNamespace(
        dt=dt,
        gain=1.0 if gain_key is None else params[gain_key],
        damping=params[damping_key],
        inertia=params[inertia_key],
        kp=params[p_key],
        ki=params[i_key],
        kd=params[d_key],
        alpha=dt / (params["deriv_tau"] + dt),
        pwm_step=params.get("pwm_step", 0.0),
        sens_lo=block_param("sensor_saturation", "lo"),
        sens_hi=block_param("sensor_saturation", "hi"),
        sens_step=block_param("quantizer", "step"),
        dz_hw=block_param("dead_zone", "half_width"),
        bl_half=None if play is None else play / 2.0,
        act_lo=block_param("actuator_saturation", "lo"),
        act_hi=block_param("actuator_saturation", "hi"),
        coulomb=block_param("coulomb_friction", "level"),
        quad=quad,
        quad_lin=None if quad is None else quad * abs(params["nominal_speed"]),
    )


def _simulate(c: SimpleNamespace, ref: list, limit: float):
    """Run the shared loop with the scalars ``c`` of :func:`_loop`.

    Returns per-step lists of the output and velocity at the step's start,
    the actuation, the actuator flags and the dead zone's and backlash's
    deviation (what depends on the command inside the step), plus the
    divergence flag; :func:`_instrument` derives the rest.
    """
    dt, gain, damping, inertia = c.dt, c.gain, c.damping, c.inertia
    kp, ki, kd, alpha, pwm_step = c.kp, c.ki, c.kd, c.alpha, c.pwm_step
    sens_lo, sens_hi, sens_step = c.sens_lo, c.sens_hi, c.sens_step
    dz_hw, bl_half, act_lo, act_hi = c.dz_hw, c.bl_half, c.act_lo, c.act_hi
    coulomb, quad = c.coulomb, c.quad

    x = v = 0.0
    integ = dfilt = 0.0
    prev_meas = None
    bl_state = 0.0
    out, vel, act, a_sat, dev_log = [], [], [], [], []
    diverged = False

    for r in ref:
        out.append(x)
        vel.append(v)

        meas = x
        if sens_lo is not None:
            if meas > sens_hi:
                meas = sens_hi
            elif meas < sens_lo:
                meas = sens_lo
        if sens_step is not None:
            meas = math.floor(meas / sens_step + 0.5) * sens_step

        e = r - meas
        d_raw = 0.0 if prev_meas is None else (meas - prev_meas) / dt
        prev_meas = meas
        dfilt += alpha * (d_raw - dfilt)
        u = kp * e + integ - kd * dfilt

        dev = 0.0
        if dz_hw is not None:
            shaped = u - dz_hw if u > dz_hw else (u + dz_hw if u < -dz_hw else 0.0)
            dev += abs(shaped - u)
            u = shaped
        if bl_half is not None:
            if u > bl_state + bl_half:
                bl_state = u - bl_half
            elif u < bl_state - bl_half:
                bl_state = u + bl_half
            dev += abs(bl_state - u)
            u = bl_state
        dev_log.append(dev)
        aflag = False
        if act_lo is not None:
            if u > act_hi:
                u, aflag = act_hi, True
            elif u < act_lo:
                u, aflag = act_lo, True
        if pwm_step > 0.0:  # duty-cycle averaged PWM: quantised drive voltage
            u = math.floor(u / pwm_step + 0.5) * pwm_step
        a_sat.append(aflag)
        act.append(u)
        integ += ki * e * dt

        fric = 0.0
        if coulomb is not None and v != 0.0:
            fric += -coulomb if v > 0.0 else coulomb
        if quad is not None:
            fric += -quad * v * abs(v)

        v += (gain * u + fric - damping * v) / inertia * dt
        x += v * dt
        if not (abs(x) <= limit and math.isfinite(v)):
            if len(out) >= 2:
                diverged = True
                break
    return out, vel, act, a_sat, dev_log, diverged


def _instrument(c: SimpleNamespace, out: np.ndarray, v: np.ndarray | None,
                shaping_dev: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The sensor flags and the deviation log of one run, from its outputs
    and velocities at the start of each step (None without friction, which
    alone reads them) and the dead zone's and backlash's part of the
    deviation (None: neither block is attached).

    The friction deviation is summed apart and added once, so the logged
    value keeps its rounding when several blocks are active.
    """
    sensor = np.zeros(len(out), dtype=bool)
    if c.sens_lo is not None:
        sensor = (out > c.sens_hi) | (out < c.sens_lo)
    fdev = 0.0
    if c.coulomb is not None:
        fdev = np.where(v != 0.0, 0.0 + abs(c.coulomb), 0.0)
    if c.quad is not None:
        fq = -c.quad * v * np.abs(v)
        fdev = fdev + np.abs(fq - (-c.quad_lin * v))
    dev = np.zeros(len(out)) if shaping_dev is None else shaping_dev
    return sensor, dev + fdev


class LaneRun(collections.namedtuple(
    "LaneRun",
    "output deviation_mean actuator_saturation_fraction sensor_saturation_fraction diverged",
)):
    """What the run stage reads of one closed-loop simulation.

    Each field equals its counterpart in the :class:`PlantRun` that
    :func:`run_plant` returns for the same reference, bit for bit:
    ``trace.output``, ``log.mean_deviation``, the two saturation fractions
    and ``diverged``.  (A named tuple: a dataclass costs about as much to
    create at import as the rest of this module.)
    """

    __slots__ = ()

    @classmethod
    def of(cls, run: PlantRun) -> LaneRun:
        """The fields of ``run`` that a lane run holds."""
        return cls(
            output=run.trace.output,
            deviation_mean=run.log.mean_deviation,
            actuator_saturation_fraction=run.log.actuator_saturation_fraction,
            sensor_saturation_fraction=run.log.sensor_saturation_fraction,
            diverged=run.diverged,
        )


def lane_step_bytes(spec: PlantSpec) -> int:
    """Bytes that :func:`run_lanes` holds per lane and step for ``spec``.

    Every lane keeps its outputs (8 bytes) and its actuator flags above and
    below (2); the velocities (8) only when a friction block needs them, and
    the dead zone's and backlash's deviation (8) only when one is attached.
    """
    keep_v, keep_dev = _kept_rows(_loop(spec))
    return 10 + 8 * keep_v + 8 * keep_dev


def _kept_rows(c: SimpleNamespace) -> tuple[bool, bool]:
    """Whether :func:`run_lanes` keeps every step's velocities (friction
    reads them) and the dead zone's and backlash's deviation."""
    return (c.coulomb is not None or c.quad is not None,
            c.dz_hw is not None or c.bl_half is not None)


def run_lanes(spec: PlantSpec, references, repeats=None) -> tuple[LaneRun, ...]:
    """Simulate ``spec`` over every reference at once; results keep their order.

    Lane ``j``'s reference is ``references[j]`` repeated ``repeats[j]``
    times (once when ``repeats`` is None), so a periodic reference can be
    given as one period.  The references may differ in length.  They become
    the lanes of one lockstep loop that performs :func:`run_plant`'s float
    operations in its order, with every state variable held as an array over
    the lanes, so a step costs a few dozen numpy calls whatever the lane
    count.  Lanes are sorted by length, longest first, so the lanes still
    running always form a prefix.  Memory grows with lanes times steps, by
    :func:`lane_step_bytes` per lane-step, on top of the references as
    given.  Each ``output`` is a view of one array that holds every lane's
    outputs.
    """
    checked = [_checked_reference(r) for r in references]
    if not checked:
        return ()
    if repeats is None:
        repeats = [1] * len(checked)
    if len(repeats) != len(checked) or min(repeats) < 1:
        raise ValueError("need one repeat count of at least 1 per reference")
    order = sorted(range(len(checked)), key=lambda j: -len(checked[j][0]) * repeats[j])
    lengths = [len(checked[j][0]) * repeats[j] for j in order]
    steps, n_lanes = lengths[0], len(order)
    c = _loop(spec)

    refs = [checked[j][0] for j in order]
    keep_v, blocks_dev = _kept_rows(c)
    # Row i holds every lane's output (velocity) at the start of step i.
    # Without friction, which alone reads the velocities afterwards, two
    # rows serve the loop in turn.
    out_rows = np.zeros((steps + 1, n_lanes))
    v_rows = np.zeros((steps + 1 if keep_v else 2, n_lanes))
    # Deviation of the dead zone and backlash; friction's is derived below.
    dev_rows = np.zeros((steps, n_lanes if blocks_dev else 0))
    # Saturation above and below are exclusive, so their counts add up.
    a_hi_rows, a_lo_rows = np.zeros((2, steps, n_lanes), dtype=bool)

    with np.errstate(all="ignore"):
        _step_lanes(c, lengths, refs, out_rows, v_rows, keep_v, dev_rows, a_hi_rows, a_lo_rows)

    runs: list = [None] * n_lanes
    for lane, j in enumerate(order):
        # The lane diverged at step i >= 1 if the output after it breaks
        # ``|x| <= limit`` (or is not finite when the limit is infinite).  A
        # non-finite velocity makes that output non-finite, so the output
        # alone decides.  Lanes ran on past their divergence.
        limit = checked[j][1] if math.isfinite(checked[j][1]) else sys.float_info.max
        with np.errstate(invalid="ignore"):
            broken = ~(np.abs(out_rows[2:lengths[lane] + 1, lane]) <= limit)
        first = int(broken.argmax())
        diverged = bool(broken[first])
        m = first + 2 if diverged else lengths[lane]
        output = out_rows[:m, lane]
        if not np.all(np.isfinite(output)):
            raise ValueError("trace contains non-finite samples")  # as run_plant's Trace
        s_sat, dev = _instrument(
            c, output, v_rows[:m, lane] if keep_v else None,
            dev_rows[:m, lane] if blocks_dev else None,
        )
        a_sat = np.count_nonzero(a_hi_rows[:m, lane]) + np.count_nonzero(a_lo_rows[:m, lane])
        runs[j] = LaneRun(
            output=output,
            deviation_mean=float(np.mean(dev)),
            actuator_saturation_fraction=int(a_sat) / m,
            sensor_saturation_fraction=float(np.mean(s_sat)),
            diverged=diverged,
        )
    return tuple(runs)


def _reference_rows(refs, start: int, stop: int, k: int, block: int = 1024):
    """Rows ``start`` to ``stop`` of the first ``k`` references side by side,
    each repeated as far as needed, assembled a block of rows at a time, so
    that no steps-by-lanes copy of the references is ever held."""
    for lo in range(start, stop, block):
        hi = min(lo + block, stop)
        index = np.arange(lo, hi)
        rows = np.empty((hi - lo, k))
        for lane in range(k):
            rows[:, lane] = refs[lane].take(index, mode="wrap")
        yield from rows


def _row_pairs(rows, start: int, stop: int, k: int, kept: bool):
    """``(row i, row i + 1)`` of the first ``k`` lanes for the steps ``i``
    from ``start``: of ``rows`` if it ``kept`` every step, else of its two
    rows in turn, row ``i % 2`` holding step ``i``."""
    if kept:
        return zip(rows[start:stop, :k], rows[start + 1:stop + 1, :k])
    even, odd = rows[0, :k], rows[1, :k]
    turns = ((even, odd), (odd, even))
    return itertools.cycle(turns if start % 2 == 0 else turns[::-1])


def _step_lanes(c: SimpleNamespace, lengths, refs, out_rows, v_rows, keep_v, dev_rows,
                a_hi_rows, a_lo_rows) -> None:
    """The lockstep loop of :func:`run_lanes`; fills the ``*_rows`` arrays
    (``v_rows`` holds every step only if ``keep_v``, else two in turn).

    Each expression below is ``_simulate``'s, with ``np.copyto(...,
    where=...)`` for its branches; keep the two in step.  Every constant is
    an array over the lanes: numpy converts a Python float on each call,
    which costs as much as the operation.  The sensor flags and the friction
    deviation depend only on the stored outputs and velocities, so
    :func:`_instrument` derives them after the loop, as for ``_simulate``.
    """
    n_lanes = len(lengths)
    absent = 0.0  # placeholder for the parameters of blocks that are absent
    table = np.array([
        c.dt, c.gain, c.damping, c.inertia, c.kp, c.ki, c.kd, c.alpha, c.pwm_step,
        *(absent if p is None else p for p in (
            c.sens_lo, c.sens_hi, c.sens_step, c.dz_hw, c.bl_half, c.act_lo, c.act_hi,
        )),
        absent if c.dz_hw is None else -c.dz_hw,
        # ``fric = 0.0; fric += fc`` for fc = -coulomb (moving up) or coulomb
        *((absent,) * 2 if c.coulomb is None else (0.0 + -c.coulomb, 0.0 + c.coulomb)),
        absent if c.quad is None else -c.quad,
        0.0, 0.5,
    ])
    table = np.repeat(table[:, None], n_lanes, axis=1)
    sens_sat, quantize = c.sens_lo is not None, c.sens_step is not None
    dead_zone, backlash, act_sat = c.dz_hw is not None, c.bl_half is not None, c.act_lo is not None
    pwm, coulomb, quad = c.pwm_step > 0.0, c.coulomb is not None, c.quad is not None
    # With bounds of no zero, min/max equal the branches bit for bit; at a
    # zero bound they may pick the other signed zero.
    sens_minmax = sens_sat and c.sens_lo != 0.0 and c.sens_hi != 0.0
    act_minmax = act_sat and c.act_lo != 0.0 and c.act_hi != 0.0

    integ, dfilt, bl_state = np.zeros((3, n_lanes))
    prev_meas = None
    # Steps [start, stop) share the active lane count k.
    segments, start = [], 0
    for k in range(n_lanes, 0, -1):
        stop = lengths[k - 1]
        if stop > start:
            segments.append((k, start, stop))
            start = stop

    copyto, add = np.copyto, np.add
    for k, start, stop in segments:
        (dt, gain, damping, inertia, kp, ki, kd, alpha, pwm_step, sens_lo, sens_hi,
         sens_step, dz_hw, bl_half, act_lo, act_hi, neg_dz_hw, fric_up, fric_down,
         neg_quad, zero, half) = table[:, :k].copy()
        integ, dfilt, bl_state = integ[:k], dfilt[:k], bl_state[:k]
        if prev_meas is not None:
            prev_meas = prev_meas[:k]
        rows = zip(
            _reference_rows(refs, start, stop, k), _row_pairs(out_rows, start, stop, k, True),
            _row_pairs(v_rows, start, stop, k, keep_v), dev_rows[start:stop, :k],
            a_hi_rows[start:stop, :k], a_lo_rows[start:stop, :k],
        )
        for r, (x, x_next), (v, v_next), dev_row, a_hi, a_lo in rows:
            meas = x
            if sens_minmax:
                meas = np.minimum(np.maximum(x, sens_lo), sens_hi)
            elif sens_sat:
                meas = x.copy()
                copyto(meas, sens_hi, where=x > sens_hi)
                copyto(meas, sens_lo, where=x < sens_lo)
            if quantize:
                meas = np.floor(meas / sens_step + half) * sens_step

            e = r - meas
            d_raw = zero if prev_meas is None else (meas - prev_meas) / dt
            prev_meas = meas
            dfilt = dfilt + alpha * (d_raw - dfilt)
            u = kp * e + integ - kd * dfilt

            dev = zero
            if dead_zone:
                shaped = zero.copy()
                copyto(shaped, u - dz_hw, where=u > dz_hw)
                copyto(shaped, u + dz_hw, where=u < neg_dz_hw)
                dev = dev + np.abs(shaped - u)
                u = shaped
            if backlash:
                held = bl_state.copy()
                copyto(held, u - bl_half, where=u > bl_state + bl_half)
                copyto(held, u + bl_half, where=u < bl_state - bl_half)
                bl_state = held
                dev = dev + np.abs(bl_state - u)
                u = bl_state
            if dead_zone or backlash:
                dev_row[...] = dev
            if act_sat:
                np.greater(u, act_hi, out=a_hi)
                np.less(u, act_lo, out=a_lo)
                if act_minmax:
                    u = np.minimum(np.maximum(u, act_lo), act_hi)
                else:
                    u = u.copy()
                    copyto(u, act_hi, where=a_hi)
                    copyto(u, act_lo, where=a_lo)
            if pwm:
                u = np.floor(u / pwm_step + half) * pwm_step
            integ = integ + ki * e * dt

            fric = zero
            if coulomb:
                fric = zero.copy()
                copyto(fric, fric_down, where=v != zero)
                copyto(fric, fric_up, where=v > zero)
            if quad:
                fric = fric + neg_quad * v * np.abs(v)

            add(v, (gain * u + fric - damping * v) / inertia * dt, out=v_next)
            add(x, v_next * dt, out=x_next)
