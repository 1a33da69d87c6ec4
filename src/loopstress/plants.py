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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    "apply_block",
    "PlantSpec",
    "drone_spec",
    "dc_servo_spec",
    "InstrumentationLog",
    "PlantRun",
    "run_plant",
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


def apply_block(block: NonlinearBlock, value: float, state: float | None = None):
    """Apply one block to a scalar; returns ``(output, new_state)``.

    Only backlash is stateful: its state is the held output position
    (initially 0.0).  Friction blocks map a velocity to an opposing
    force/torque term.  Stateless blocks return ``state`` unchanged (None).
    """
    if not math.isfinite(value):
        raise ValueError("block input must be finite")
    p = block.params
    kind = block.kind
    if kind in ("actuator_saturation", "sensor_saturation"):
        return min(max(value, p["lo"]), p["hi"]), state
    if kind == "quantizer":
        step = p["step"]
        return math.floor(value / step + 0.5) * step, state
    if kind == "dead_zone":
        hw = p["half_width"]
        if value > hw:
            return value - hw, state
        if value < -hw:
            return value + hw, state
        return 0.0, state
    if kind == "backlash":
        half = p["play"] / 2.0
        held = 0.0 if state is None else state
        if value > held + half:
            held = value - half
        elif value < held - half:
            held = value + half
        return held, held
    if kind == "coulomb_friction":
        level = p["level"]
        if value > 0.0:
            return -level, state
        if value < 0.0:
            return level, state
        return 0.0, state
    if kind == "quadratic_friction":
        return -p["coef"] * value * abs(value), state
    raise ValueError(f"unknown block kind {kind!r}")  # pragma: no cover


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


@dataclass(frozen=True)
class InstrumentationLog:
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


@dataclass(frozen=True)
class PlantRun:
    """Outcome of one closed-loop simulation."""

    trace: Trace
    log: InstrumentationLog
    diverged: bool


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
    ref = np.asarray(reference, dtype=float)
    if ref.ndim != 1 or len(ref) < 2:
        raise ValueError("reference must be 1-D with at least two samples")
    if not np.all(np.isfinite(ref)):
        raise ValueError("reference contains non-finite samples")
    peak = float(np.max(np.abs(ref)))
    limit = 1e6 * peak if peak > 0.0 else math.inf

    out, act, a_sat, s_sat, dev, diverged = _simulate(spec, ref.tolist(), limit)

    n = len(out)
    trace = Trace(
        reference=ref[:n],
        output=np.asarray(out, dtype=float),
        sample_interval=spec.sample_interval,
    )
    log = InstrumentationLog(
        actuator_saturated=np.asarray(a_sat, dtype=bool),
        sensor_saturated=np.asarray(s_sat, dtype=bool),
        nonlinearity_deviation=np.asarray(dev, dtype=float),
        actuation=np.asarray(act, dtype=float),
    )
    return PlantRun(trace=trace, log=log, diverged=diverged)


def _simulate(spec: PlantSpec, ref: list, limit: float):
    """Run the shared loop with ``spec``'s coefficients; returns per-step lists."""
    dt = spec.sample_interval
    params = {**spec.physical, **spec.controller}
    gain_key, damping_key, inertia_key, p_key, i_key, d_key = _LOOP_ROLES[spec.model]
    gain = 1.0 if gain_key is None else params[gain_key]
    damping, inertia = params[damping_key], params[inertia_key]
    kp, ki, kd = params[p_key], params[i_key], params[d_key]
    alpha = dt / (params["deriv_tau"] + dt)
    pwm_step = params.get("pwm_step", 0.0)

    blocks = {b.kind: b.params for b in spec.blocks}

    def block_param(kind, name):
        return blocks[kind][name] if kind in blocks else None

    sens_lo = block_param("sensor_saturation", "lo")
    sens_hi = block_param("sensor_saturation", "hi")
    sens_step = block_param("quantizer", "step")
    dz_hw = block_param("dead_zone", "half_width")
    play = block_param("backlash", "play")
    bl_half = None if play is None else play / 2.0
    act_lo = block_param("actuator_saturation", "lo")
    act_hi = block_param("actuator_saturation", "hi")
    coulomb = block_param("coulomb_friction", "level")
    quad = block_param("quadratic_friction", "coef")
    quad_lin = None if quad is None else quad * abs(params["nominal_speed"])

    x = v = 0.0
    integ = dfilt = 0.0
    prev_meas = None
    bl_state = 0.0
    out, act, a_sat, s_sat, dev_log = [], [], [], [], []
    diverged = False

    for r in ref:
        out.append(x)

        meas = x
        sflag = False
        if sens_lo is not None:
            if meas > sens_hi:
                meas, sflag = sens_hi, True
            elif meas < sens_lo:
                meas, sflag = sens_lo, True
        if sens_step is not None:
            meas = math.floor(meas / sens_step + 0.5) * sens_step
        s_sat.append(sflag)

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

        # Friction deviation is summed apart and added to ``dev`` once, so
        # the logged value keeps its rounding when several blocks are active.
        fric = fdev = 0.0
        if coulomb is not None and v != 0.0:
            fc = -coulomb if v > 0.0 else coulomb
            fric += fc
            fdev += abs(fc)
        if quad is not None:
            fq = -quad * v * abs(v)
            fric += fq
            fdev += abs(fq - (-quad_lin * v))
        dev_log.append(dev + fdev)

        v += (gain * u + fric - damping * v) / inertia * dt
        x += v * dt
        if not (abs(x) <= limit and math.isfinite(v)):
            if len(out) >= 2:
                diverged = True
                break
    return out, act, a_sat, s_sat, dev_log, diverged
