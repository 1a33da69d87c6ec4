"""The value types that every stage shares.

A plant's description (``PlantSpec``, its ``NonlinearBlock`` list and the
block constructors), a campaign's inputs and records (``RequiredInput``,
``AmplitudeBoundMap``, ``TestSet``, ``TestResult``), the errors of its
stages and the MR violation record.  They live apart from the code that
simulates, scores and checks them, so that loading a config or an
artifact, or analysing results, imports no simulator: ``config``,
``persist`` and ``analysis`` take them from here.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .signals import ShapeKind, TestCase

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
    "RequiredInput",
    "BoundRefinementError",
    "AmplitudeBoundMap",
    "SamplingError",
    "GeneratedTest",
    "TestSet",
    "Component",
    "TestResult",
    "MrViolation",
]


class _Block(NamedTuple):
    bit: int  # of the steppers' ``blocks``: set when a block of the kind is attached
    params: tuple[str, ...]  # required names, in the order their values fill ``p``
    rule: Callable[..., bool]  # true of valid parameter values, false of NaN
    error: str  # the message when ``rule`` fails


# Every block kind, in the order of ``stepper.c``'s enum.
_BLOCKS = {
    "sensor_saturation":
        _Block(1, ("lo", "hi"), lambda lo, hi: lo < hi, "saturation needs lo < hi"),
    "quantizer":
        _Block(2, ("step",), lambda step: step > 0.0, "quantizer step must be positive"),
    "dead_zone":
        _Block(4, ("half_width",), lambda w: w >= 0.0, "dead zone half width must be non-negative"),
    "backlash":
        _Block(8, ("play",), lambda play: play >= 0.0, "backlash play must be non-negative"),
    "actuator_saturation":
        _Block(16, ("lo", "hi"), lambda lo, hi: lo < hi, "saturation needs lo < hi"),
    "coulomb_friction":
        _Block(32, ("level",), lambda level: level >= 0.0, "friction level must be non-negative"),
    "quadratic_friction":
        _Block(64, ("coef",), lambda coef: coef >= 0.0, "friction coefficient must be non-negative"),
}

# kind -> required parameter names
BLOCK_KINDS: dict[str, tuple[str, ...]] = {kind: b.params for kind, b in _BLOCKS.items()}


@dataclass(frozen=True)
class NonlinearBlock:
    """One non-linear element, identified by kind plus its parameters."""

    kind: str
    params: dict[str, float]

    def __post_init__(self):
        if self.kind not in _BLOCKS:
            raise ValueError(f"unknown block kind {self.kind!r}")
        block = _BLOCKS[self.kind]
        wanted = set(block.params)
        got = set(self.params)
        if got != wanted:
            raise ValueError(
                f"{self.kind} expects parameters {sorted(wanted)}, got {sorted(got)}"
            )
        object.__setattr__(
            self, "params", {k: float(v) for k, v in self.params.items()}
        )
        if not block.rule(*(self.params[name] for name in block.params)):
            raise ValueError(block.error)


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


# Each model's default parameters, and the parameter that plays each role in
# the shared loop
#     u = P*e + integral - D*filtered_derivative,
#     v += (gain*u + friction - damping*v) / inertia * dt,
# as (gain, damping, inertia, P, I, D).  The drone's thrust acts on its mass
# directly, so its gain is None, meaning the constant 1.0.
_MODELS = {
    "drone_alt": {
        "physical": {"mass": 0.1, "drag": 1.0, "nominal_speed": 1.0},
        "controller": {"kp": 3.0, "ki": 2.0, "kd": 0.0, "deriv_tau": 0.0},
        "roles": (None, "drag", "mass", "kp", "ki", "kd"),
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
        "roles": ("torque_const", "damping", "inertia", "k_pos", "k_int", "k_vel"),
    },
}


@dataclass(frozen=True)
class PlantSpec:
    """Fully describes a simulated loop: model, parameters, blocks, sampling.

    Missing physical/controller entries are filled with the model defaults;
    unknown entries are rejected.  At most one block of each kind may be
    attached.  Parameters are checked by their role in the loop: the inertia
    (the drone's mass) must be positive, and the damping (the drone's drag),
    ``deriv_tau`` and ``pwm_step`` non-negative, which NaN fails; the gains
    are free.
    """

    model: str
    physical: dict[str, float] = field(default_factory=dict)
    controller: dict[str, float] = field(default_factory=dict)
    blocks: tuple[NonlinearBlock, ...] = ()
    sample_interval: float = 0.001

    def __post_init__(self):
        if self.model not in _MODELS:
            raise ValueError(f"unknown plant model {self.model!r}")
        defaults = _MODELS[self.model]
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
        if not self.sample_interval > 0.0:
            raise ValueError("sample_interval must be positive")
        params = {**self.physical, **self.controller}
        _, damping, inertia = defaults["roles"][:3]
        if not params[inertia] > 0.0:
            raise ValueError(f"{inertia} must be positive")
        for name in (damping, "deriv_tau", "pwm_step"):
            if not params.get(name, 0.0) >= 0.0:  # the drone has no pwm_step
                raise ValueError(f"{name} must be non-negative")


def _model_spec(model: str, blocks, sample_interval: float, overrides: dict) -> PlantSpec:
    """The spec of ``model`` with ``blocks``, its flat keyword overrides
    sorted into the model's physical and controller sets."""
    defaults = _MODELS[model]
    physical = {k: v for k, v in overrides.items() if k in defaults["physical"]}
    controller = {k: v for k, v in overrides.items() if k in defaults["controller"]}
    leftovers = set(overrides) - set(physical) - set(controller)
    if leftovers:
        raise ValueError(f"unknown {model} parameters: {sorted(leftovers)}")
    return PlantSpec(model, physical, controller, blocks, sample_interval)


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
    return _model_spec("drone_alt", blocks + tuple(extra_blocks), sample_interval, param_overrides)


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
    return _model_spec("dc_servo", blocks + tuple(extra_blocks), sample_interval, param_overrides)


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
    exceeds ``delta_a`` but that cannot be split further (the midpoint
    searches like an endpoint; for the sine probe, it snaps onto an
    endpoint's period): the plant's linear envelope has a jump there sharper
    than one period step.
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


class SamplingError(ValueError):
    """The inputs or a test are sampled unlike the plant, which would run
    their references at another time scale."""


# Records that only hold values are named tuples, which are several times
# cheaper than a frozen dataclass both to define at import and to build;
# records that validate their fields stay dataclasses.
class GeneratedTest(NamedTuple):
    """A test case plus how it was derived."""

    case: TestCase
    target_frequency: float
    bound: float
    snap_error: float


class TestSet(NamedTuple):
    # Not a pytest test class, despite the name.
    __test__ = False

    tests: tuple[GeneratedTest, ...]
    seed: int
    frequency_step: float
    shapes: tuple[ShapeKind, ...]


class Component(NamedTuple):
    """One relevant reference component and, for linear runs, its filtering."""

    frequency: float
    amplitude: float
    dof: float | None


class TestResult(NamedTuple):
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


@dataclass(frozen=True, slots=True)
class MrViolation:
    """One falsified relation instance.

    ``subjects`` identifies the pair being compared (result indices for
    MR1/MR2, shape names for MR3); ``witnesses`` carries the numbers that
    falsified the relation.
    """

    relation: str
    subjects: tuple
    witnesses: tuple[float, ...]
    detail: str = ""
