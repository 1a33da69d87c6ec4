"""Nonlinear blocks, plant construction, closed-loop simulation."""
from __future__ import annotations

import hashlib
import math
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopstress import plants
from loopstress.plants import (
    BLOCK_KINDS,
    NonlinearBlock,
    PlantSpec,
    actuator_saturation,
    backlash,
    coulomb_friction,
    dc_servo_spec,
    dead_zone,
    drone_spec,
    quadratic_friction,
    quantizer,
    run_lanes,
    run_plant,
    sensor_saturation,
)
from loopstress.signals import ShapeKind, TestCase, eval_shape, render_reference, snap_time_gain


def simulate(spec, shape=ShapeKind.SQUARE, amp=1.0, time_gain=1.0, periods=2, dt=0.001):
    case = TestCase(shape=shape, amp_gain=amp, time_gain=time_gain, periods=periods, sample_interval=dt)
    return run_plant(spec, render_reference(case))


# ---------------------------------------------------------------------------
# blocks: pinned input/output pairs, read through the simulator
# ---------------------------------------------------------------------------


def pass_through(*blocks, drive=0.0, pwm_step=0.0):
    """A servo whose controller passes the reference straight through.

    The encoder's quantisation step is so coarse that every position reads
    0, and the controller has a unit proportional gain only, so the command
    of each step is the reference sample itself.  Without drive (a torque
    constant of 0) the rotor stays at rest, so the logged actuation is the
    actuation path's blocks applied to the reference.
    """
    return dc_servo_spec(
        voltage_limit=0.0, sensor_range=0.0, adc_step=1e9, extra_blocks=blocks,
        torque_const=drive, pwm_step=pwm_step, k_pos=1.0, k_int=0.0, k_vel=0.0,
    )


def shaped(values, *blocks, **kwargs):
    """The log of the pass-through servo commanded with ``values``."""
    return run_plant(pass_through(*blocks, **kwargs), np.array(values, dtype=float)).log


def unit_gain_servo(sensor_range=0.0, adc_step=0.0):
    """A servo under proportional control of gain 1: the command is
    ``reference - measurement``, exactly."""
    return dc_servo_spec(
        voltage_limit=0.0, sensor_range=sensor_range, adc_step=adc_step,
        k_pos=1.0, k_int=0.0, k_vel=0.0,
    )


def terminal_speed(spec, command):
    """Speed at the end of a 6 s constant ``command`` to the pass-through servo."""
    run = run_plant(spec, np.full(6000, command))
    assert not run.diverged
    return (run.trace.output[-1] - run.trace.output[-2]) / spec.sample_interval, run


def test_actuator_saturation_clips_symmetrically():
    log = shaped([3.1, -5.0, 1.5], actuator_saturation(-2.0, 2.0))
    assert log.actuation.tolist() == [2.0, -2.0, 1.5]
    assert log.actuator_saturated.tolist() == [True, True, False]


def test_sensor_saturation_same_rule_different_slot(stepper):
    assert sensor_saturation(-0.5, 0.5).kind == "sensor_saturation"
    spec = unit_gain_servo(sensor_range=0.5)
    run = run_plant(spec, np.ones(3000))
    out = run.trace.output
    clipped = (out > 0.5) | (out < -0.5)
    assert 0 < np.count_nonzero(clipped) < out.size
    # The controller reads the clipped position: the command is 1 - 0.5 there.
    np.testing.assert_array_equal(run.log.actuation, 1.0 - np.clip(out, -0.5, 0.5))
    np.testing.assert_array_equal(run.log.sensor_saturated, clipped)


def test_quantizer_rounds_to_nearest_level():
    # The encoder's quantizer, read through a unit-gain loop ...
    run = run_plant(unit_gain_servo(adc_step=0.1), np.ones(3000))
    out = run.trace.output
    levels = np.floor(out / 0.1 + 0.5) * 0.1
    assert np.any(levels != out)
    np.testing.assert_array_equal(run.log.actuation, 1.0 - levels)
    # ... and the PWM quantiser of the drive voltage round alike.
    log = shaped([0.2499, 0.25, -0.14, 0.0], pwm_step=0.1)
    # The half rounds up.
    assert log.actuation.tolist() == pytest.approx([0.2, 0.3, -0.1, 0.0])


def test_dead_zone_swallows_small_commands():
    log = shaped([0.3, -0.4, 0.8, -1.0], dead_zone(0.5))
    assert log.actuation.tolist() == pytest.approx([0.0, 0.0, 0.3, -0.5])
    assert log.nonlinearity_deviation.tolist() == pytest.approx([0.3, 0.4, 0.5, 0.5])


def test_backlash_holds_output_inside_play():
    log = shaped([0.3, 0.25, 0.05, 0.1], backlash(0.2))
    # Rising: input minus half play; inside the band: held; falling: input
    # plus half play.
    assert log.actuation.tolist() == pytest.approx([0.2, 0.2, 0.15, 0.15])


def test_coulomb_friction_opposes_motion(stepper):
    # A constant drive against viscous damping settles at gain * u / damping
    # (2.5 rad/s); the friction subtracts its level in either direction.
    free, _ = terminal_speed(pass_through(drive=0.05), 1.0)
    assert free == pytest.approx(2.5, rel=1e-4)
    spec = pass_through(coulomb_friction(0.01), drive=0.05)
    up, run = terminal_speed(spec, 1.0)
    down, mirrored = terminal_speed(spec, -1.0)
    assert up == pytest.approx((0.05 - 0.01) / 0.02, rel=1e-4)
    np.testing.assert_array_equal(mirrored.trace.output, -run.trace.output)
    assert down == -up
    # Its deviation from no friction is its level, once the rotor moves.
    assert run.log.nonlinearity_deviation[0] == 0.0
    assert np.all(run.log.nonlinearity_deviation[1:] == 0.01)


def test_quadratic_friction_grows_with_speed_squared(stepper):
    coef, damping = 0.02, 0.02
    spec = pass_through(quadratic_friction(coef), drive=0.05)
    for command in (1.0, 4.0, -4.0):
        speed, run = terminal_speed(spec, command)
        # The drive balances damping plus the friction: coef * v * |v|.
        assert 0.05 * command == pytest.approx(damping * speed + coef * speed * abs(speed), rel=1e-6)
        # Deviation from the linear drag matched at the nominal speed of 1.
        expected = coef * abs(speed * abs(speed) - speed)
        assert run.log.nonlinearity_deviation[-1] == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_run_plant_rejects_non_finite_reference(value):
    with pytest.raises(ValueError):
        run_plant(drone_spec(), np.array([0.0, value]))


def test_run_lanes_rejects_a_lane_whose_scaled_reference_overflows():
    # |a| * peak is 1e309, beyond float range.
    with pytest.raises(ValueError, match="reference contains non-finite samples"):
        run_lanes(drone_spec(), np.array([0.0, 10.0]), [1e308], 1)


def test_block_kind_registry_is_complete():
    kinds = {
        "actuator_saturation",
        "sensor_saturation",
        "quantizer",
        "dead_zone",
        "backlash",
        "coulomb_friction",
        "quadratic_friction",
    }
    assert kinds == set(BLOCK_KINDS)


@pytest.mark.parametrize(
    "factory, args",
    [
        (actuator_saturation, (2.0, -2.0)),  # lo above hi
        (actuator_saturation, (1.0, 1.0)),
        (quantizer, (0.0,)),
        (quantizer, (-0.1,)),
        (dead_zone, (-0.5,)),
        (backlash, (-0.2,)),
        (coulomb_friction, (-1.0,)),
        (quadratic_friction, (-0.5,)),
        (quantizer, (math.nan,)),  # NaN fails every rule
    ],
)
def test_block_factories_reject_bad_parameters(factory, args):
    with pytest.raises(ValueError):
        factory(*args)


@pytest.mark.parametrize(
    "make, overrides, says",
    [
        (dc_servo_spec, {"damping": -0.1}, "damping must be non-negative"),
        # Minus the sample interval: alpha = dt / (deriv_tau + dt) divides by 0.
        (drone_spec, {"deriv_tau": -0.001}, "deriv_tau must be non-negative"),
        (drone_spec, {"deriv_tau": -0.0005}, "deriv_tau must be non-negative"),
        (dc_servo_spec, {"pwm_step": -0.05}, "pwm_step must be non-negative"),
    ],
)
def test_plant_specs_reject_bad_loop_roles(make, overrides, says):
    with pytest.raises(ValueError, match=says):
        make(**overrides)


def test_unknown_block_kind_rejected():
    with pytest.raises(ValueError):
        NonlinearBlock(kind="viscous", params={"coef": 1.0})


def test_block_with_wrong_parameter_names_rejected():
    with pytest.raises(ValueError):
        NonlinearBlock(kind="quantizer", params={"width": 0.1})


@given(
    value=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    step=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
)
@settings(max_examples=200)
@example(value=0.5, step=0.2)  # 3 * 0.2 rounds to 0.6000000000000001
def test_quantizer_error_bounded_by_half_step(value, step):
    out = shaped([value, value], pwm_step=step).actuation[0]
    # k * step is rounded to a double, so the error may pass step/2 by a few ulp.
    slack = 4 * math.ulp(max(abs(value), step))
    assert abs(out - value) <= step / 2.0 + slack
    # Output is an integer multiple of the step.
    assert abs(out / step - round(out / step)) < 1e-6


@given(
    values=st.lists(
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False), min_size=2, max_size=30
    )
)
@settings(max_examples=100)
def test_backlash_is_monotone_for_monotone_input(values):
    outputs = shaped(sorted(values), backlash(0.3)).actuation
    assert np.all(np.diff(outputs) >= -1e-12)


def test_backlash_with_zero_play_is_identity():
    values = [0.5, -0.2, 1.7, 0.0]
    assert shaped(values, backlash(0.0)).actuation.tolist() == values


# ---------------------------------------------------------------------------
# plant construction
# ---------------------------------------------------------------------------


def test_drone_spec_defaults():
    spec = drone_spec()
    assert spec.model == "drone_alt"
    assert spec.physical["mass"] == pytest.approx(0.1)
    assert spec.physical["drag"] == pytest.approx(1.0)
    assert spec.controller["kp"] == pytest.approx(3.0)
    assert spec.controller["ki"] == pytest.approx(2.0)
    kinds = [b.kind for b in spec.blocks]
    assert kinds == ["actuator_saturation"]
    assert spec.blocks[0].params == {"lo": -2.0, "hi": 2.0}


def test_dc_servo_spec_defaults():
    spec = dc_servo_spec()
    assert spec.model == "dc_servo"
    kinds = [b.kind for b in spec.blocks]
    assert "actuator_saturation" in kinds
    assert "sensor_saturation" in kinds
    assert "quantizer" in kinds


def test_plant_spec_rejects_unknown_model():
    with pytest.raises(ValueError):
        PlantSpec(model="inverted_pendulum", physical={}, controller={}, blocks=())


def test_plant_spec_rejects_unknown_parameter():
    with pytest.raises(ValueError):
        drone_spec(lift_coefficient=2.0)
    with pytest.raises(ValueError):
        dc_servo_spec(gear_ratio=10.0)


def test_plant_spec_rejects_duplicate_block_kinds():
    with pytest.raises(ValueError):
        PlantSpec(
            model="drone_alt",
            physical={},
            controller={},
            blocks=(actuator_saturation(-1, 1), actuator_saturation(-2, 2)),
        )


def test_plant_spec_rejects_bad_physical_values():
    with pytest.raises(ValueError):
        drone_spec(mass=0.0)
    with pytest.raises(ValueError):
        drone_spec(mass=-1.0)
    with pytest.raises(ValueError):
        drone_spec(drag=-0.1)


def test_plant_spec_rejects_bad_sample_interval():
    with pytest.raises(ValueError):
        drone_spec(sample_interval=0.0)


def test_extra_blocks_are_appended():
    spec = drone_spec(extra_blocks=(dead_zone(0.1),))
    kinds = [b.kind for b in spec.blocks]
    assert kinds == ["actuator_saturation", "dead_zone"]


# ---------------------------------------------------------------------------
# closed-loop simulation
# ---------------------------------------------------------------------------


def test_zero_reference_stays_at_rest():
    for spec in (drone_spec(), dc_servo_spec()):
        run = simulate(spec, amp=0.0, time_gain=1.0, periods=1)
        assert np.all(run.trace.output == 0.0)
        assert not run.diverged
        assert run.log.actuator_saturation_fraction == 0.0
        assert run.log.sensor_saturation_fraction == 0.0
        assert run.log.mean_deviation == 0.0


def test_simulation_is_deterministic():
    spec = drone_spec()
    case = TestCase(shape=ShapeKind.SQUARE, amp_gain=1.5, time_gain=0.1, periods=2, sample_interval=0.001)
    ref = render_reference(case)
    a = run_plant(spec, ref)
    b = run_plant(spec, ref)
    assert np.array_equal(a.trace.output, b.trace.output)
    assert np.array_equal(a.log.actuation, b.log.actuation)


def test_output_and_reference_lengths_match():
    run = simulate(drone_spec(), amp=0.5, time_gain=0.5, periods=3)
    assert run.trace.reference.size == run.trace.output.size == 6000


def test_step_tracking_settles_on_target():
    # Slow square at moderate amplitude: the loop settles onto each level.
    run = simulate(drone_spec(), amp=0.6, time_gain=0.1, periods=1, dt=0.001)
    assert run.trace.output[-1] == pytest.approx(0.6, abs=0.02)
    mid = run.trace.output[4999]  # end of the low half-period
    assert mid == pytest.approx(0.0, abs=0.02)


def test_actuation_never_exceeds_saturation_limits():
    run = simulate(drone_spec(), amp=1.5, time_gain=0.1, periods=2)
    assert np.all(run.log.actuation <= 2.0 + 1e-12)
    assert np.all(run.log.actuation >= -2.0 - 1e-12)
    frac = run.log.actuator_saturation_fraction
    assert 0.0 < frac < 0.5
    # Saturated steps are exactly the ones pinned at a limit.
    at_limit = np.isclose(np.abs(run.log.actuation), 2.0)
    assert frac == pytest.approx(float(np.mean(at_limit)), abs=1e-9)


def test_unsaturated_loop_is_linear_in_the_reference():
    # With the thrust limit removed the drone loop is linear: doubling the
    # reference doubles the response.
    spec = drone_spec(thrust_limit=0.0)
    case1 = TestCase(shape=ShapeKind.TRIANGLE, amp_gain=0.7, time_gain=0.5, periods=2, sample_interval=0.001)
    case2 = TestCase(shape=ShapeKind.TRIANGLE, amp_gain=1.4, time_gain=0.5, periods=2, sample_interval=0.001)
    out1 = run_plant(spec, render_reference(case1)).trace.output
    out2 = run_plant(spec, render_reference(case2)).trace.output
    np.testing.assert_allclose(out2, 2.0 * out1, rtol=1e-9, atol=1e-12)


def test_velocity_limited_slewing_under_deep_saturation():
    # Far outside the design scope the drone rises at terminal velocity
    # (thrust limit over drag), so the response to a big square turns into
    # ramps with bounded slope.
    run = simulate(drone_spec(), amp=3.5, time_gain=0.2, periods=2)
    slope = np.diff(run.trace.output) / 0.001
    assert float(np.max(slope)) <= 2.0 * 1.02
    assert float(np.max(slope)) >= 1.8
    # Integrator windup produces overshoot past the commanded level.
    assert float(np.max(run.trace.output)) > 3.5 + 0.3


def test_sensor_saturation_flags_when_range_is_exceeded():
    wide = simulate(dc_servo_spec(), shape=ShapeKind.SINE, amp=3.0, time_gain=0.2, periods=1)
    assert wide.log.sensor_saturation_fraction == 0.0
    narrow = simulate(
        dc_servo_spec(sensor_range=2.0), shape=ShapeKind.SINE, amp=3.0, time_gain=0.2, periods=1
    )
    assert narrow.log.sensor_saturation_fraction > 0.0


def test_pwm_quantisation_restricts_actuation_levels():
    spec = dc_servo_spec(pwm_step=0.05)
    run = simulate(spec, shape=ShapeKind.SINE, amp=1.0, time_gain=0.2, periods=1)
    levels = run.log.actuation / 0.05
    np.testing.assert_allclose(levels, np.round(levels), atol=1e-9)


def test_deviation_log_zero_without_deviation_blocks():
    run = simulate(drone_spec(), amp=1.0, time_gain=0.5, periods=1)
    assert run.log.mean_deviation == 0.0


def test_coulomb_friction_registers_bounded_deviation():
    spec = drone_spec(extra_blocks=(coulomb_friction(0.05),))
    run = simulate(spec, shape=ShapeKind.SINE, amp=1.0, time_gain=0.5, periods=2)
    assert 0.0 < run.log.mean_deviation <= 0.05 + 1e-12


def test_quadratic_friction_deviation_peaks_near_loop_bandwidth():
    # The deviation instrumentation tracks how hard the injected block works:
    # largest near the bandwidth where velocities are highest, smaller both
    # for slow commands and far above the bandwidth where motion is tiny.
    spec = dc_servo_spec(extra_blocks=(quadratic_friction(0.002),))

    def deviation(freq):
        time_gain = snap_time_gain(freq, 0.001)
        run = simulate(spec, shape=ShapeKind.SINE, amp=3.0, time_gain=time_gain, periods=5)
        return run.log.mean_deviation

    low, mid, high = deviation(0.2), deviation(0.9), deviation(2.8)
    assert mid > low
    assert mid > high


def test_divergence_is_detected_and_truncated():
    spec = drone_spec(kp=-30.0, thrust_limit=0.0)
    case = TestCase(shape=ShapeKind.SINE, amp_gain=1.0, time_gain=1.0, periods=3, sample_interval=0.001)
    run = run_plant(spec, render_reference(case))
    assert run.diverged
    assert 2 <= run.trace.output.size < 3000
    assert np.all(np.isfinite(run.trace.output))


def test_run_plant_rejects_too_short_reference():
    with pytest.raises(ValueError):
        run_plant(drone_spec(), np.array([1.0]))


# ---------------------------------------------------------------------------
# exact output: digests pin every float operation of the simulation loop
# ---------------------------------------------------------------------------

GOLDEN_PLANTS = {
    "drone": lambda extra: drone_spec(extra_blocks=extra),
    "drone_pid": lambda extra: drone_spec(
        thrust_limit=0.0, kd=0.05, deriv_tau=0.01, extra_blocks=extra
    ),
    "servo": lambda extra: dc_servo_spec(extra_blocks=extra),
    "servo_pwm": lambda extra: dc_servo_spec(pwm_step=0.05, sensor_range=2.0, extra_blocks=extra),
}
GOLDEN_EXTRAS = {
    "plain": (),
    "dead_zone": (dead_zone(0.05),),
    "backlash": (backlash(0.05),),
    "coulomb": (coulomb_friction(0.05),),
    "quadratic": (quadratic_friction(0.002),),
    "all": (dead_zone(0.05), backlash(0.05), coulomb_friction(0.05), quadratic_friction(0.002)),
}
# name -> (shape, amplitude, time gain, periods)
GOLDEN_POINTS = {
    "square": (ShapeKind.SQUARE, 1.0, 1.0, 2),
    "sine": (ShapeKind.SINE, 3.0, 2.0, 3),
    "triangle": (ShapeKind.TRIANGLE, 0.4, 0.5, 1),
    "trapezoid": (ShapeKind.TRAPEZOID, 2.0, 4.0, 4),
}
GOLDEN_CASES = {
    f"{p}-{e}-{s}": (GOLDEN_PLANTS[p](GOLDEN_EXTRAS[e]), GOLDEN_POINTS[s])
    for p in GOLDEN_PLANTS
    for e in GOLDEN_EXTRAS
    for s in GOLDEN_POINTS
}
GOLDEN_CASES["diverging"] = (
    drone_spec(kp=-30.0, thrust_limit=0.0),
    (ShapeKind.SINE, 1.0, 1.0, 3),
)
# First 16 hex digits of the sha256 over the run's output, actuation, both
# saturation flag arrays, deviation log and divergence flag.  Reordering any
# float operation of the loop changes them; update them only together with
# a CHANGES.md entry that says which results moved and why.
GOLDEN_DIGESTS = {
    "drone-plain-square": "0f67af40199cf2c1",
    "drone-plain-sine": "b76223b67d378ecd",
    "drone-plain-triangle": "bda316e7c753acbd",
    "drone-plain-trapezoid": "192a4ba93ed82053",
    "drone-dead_zone-square": "62822efc27719e60",
    "drone-dead_zone-sine": "54df8608d91803bb",
    "drone-dead_zone-triangle": "f97a9132767328fc",
    "drone-dead_zone-trapezoid": "02396bed37a32406",
    "drone-backlash-square": "ef34f116895926d2",
    "drone-backlash-sine": "b2843d1573d3fa00",
    "drone-backlash-triangle": "5603f22d933a0952",
    "drone-backlash-trapezoid": "55bfc01d6163957d",
    "drone-coulomb-square": "269928a8d95583ab",
    "drone-coulomb-sine": "d49705db3da09a60",
    "drone-coulomb-triangle": "37f4d8e4c04173a8",
    "drone-coulomb-trapezoid": "1221497098a0db12",
    "drone-quadratic-square": "8563bcb3c2469f29",
    "drone-quadratic-sine": "ed379b4a9483a81f",
    "drone-quadratic-triangle": "3065e787aa9d3300",
    "drone-quadratic-trapezoid": "db909ffab207399d",
    "drone-all-square": "989f387d25580d84",
    "drone-all-sine": "b9145a2f8bd7f083",
    "drone-all-triangle": "f9eb83dacf9370e5",
    "drone-all-trapezoid": "e92d85f63586e5f0",
    "drone_pid-plain-square": "d124fa9f83a4871c",
    "drone_pid-plain-sine": "2c6501e66d4ed32b",
    "drone_pid-plain-triangle": "00918c1173d87340",
    "drone_pid-plain-trapezoid": "d49228e06090a4f0",
    "drone_pid-dead_zone-square": "e5da160d4ee7fded",
    "drone_pid-dead_zone-sine": "e8190b7dee96a6ed",
    "drone_pid-dead_zone-triangle": "b05b3c88a2f34e01",
    "drone_pid-dead_zone-trapezoid": "fb1d8cd1ae288066",
    "drone_pid-backlash-square": "b770df6404774aec",
    "drone_pid-backlash-sine": "476863ad719fefce",
    "drone_pid-backlash-triangle": "317331089c09a876",
    "drone_pid-backlash-trapezoid": "185b6dae86710272",
    "drone_pid-coulomb-square": "75523e83e4779383",
    "drone_pid-coulomb-sine": "06ea93839f1bf8f8",
    "drone_pid-coulomb-triangle": "9d6c370d729d9eb8",
    "drone_pid-coulomb-trapezoid": "23937b03c90be103",
    "drone_pid-quadratic-square": "f18e825e6cfccdd7",
    "drone_pid-quadratic-sine": "ca106882c4bee879",
    "drone_pid-quadratic-triangle": "15a989cbe5d2e645",
    "drone_pid-quadratic-trapezoid": "d028d9a4d78c9774",
    "drone_pid-all-square": "ac8643b52ef77907",
    "drone_pid-all-sine": "ab26cc75132d7232",
    "drone_pid-all-triangle": "c01021bc7dd1e10e",
    "drone_pid-all-trapezoid": "707c052b8ee58dcb",
    "servo-plain-square": "c283c91888374c71",
    "servo-plain-sine": "2977eb04a6f8a3b9",
    "servo-plain-triangle": "1131705c11bd63f0",
    "servo-plain-trapezoid": "0676ee31ca1571d6",
    "servo-dead_zone-square": "ac0b87fba5d7a0fc",
    "servo-dead_zone-sine": "4400cb0cbddd818d",
    "servo-dead_zone-triangle": "21c11c66d60aaf16",
    "servo-dead_zone-trapezoid": "2548bfa48a86cdfb",
    "servo-backlash-square": "be0fe0bc26016f72",
    "servo-backlash-sine": "13f3679ff2029997",
    "servo-backlash-triangle": "18558c0062340ac0",
    "servo-backlash-trapezoid": "20ce4b24f78ff2c7",
    "servo-coulomb-square": "57e51e9cf637680b",
    "servo-coulomb-sine": "522f58edc334aa87",
    "servo-coulomb-triangle": "dcc5ad5d1c15b3e6",
    "servo-coulomb-trapezoid": "15058ab63ab4fdc1",
    "servo-quadratic-square": "d86ca837ad6e41b5",
    "servo-quadratic-sine": "a09f4e8a49a22586",
    "servo-quadratic-triangle": "42571e4408584c22",
    "servo-quadratic-trapezoid": "a9619161c49842e6",
    "servo-all-square": "6f7b4b81cfbaafa1",
    "servo-all-sine": "d13bbdf4c80c9780",
    "servo-all-triangle": "784e23cf76cad116",
    "servo-all-trapezoid": "b78bfe0d3f9f5736",
    "servo_pwm-plain-square": "60de18f22c35b20d",
    "servo_pwm-plain-sine": "b4279c4aa7223c71",
    "servo_pwm-plain-triangle": "3b75d92aa6546bc1",
    "servo_pwm-plain-trapezoid": "e0c4670d5a34dfa9",
    "servo_pwm-dead_zone-square": "ad77cf80c71a6e20",
    "servo_pwm-dead_zone-sine": "b5c58e5183ed0063",
    "servo_pwm-dead_zone-triangle": "a5bec6bdc8dd3b9c",
    "servo_pwm-dead_zone-trapezoid": "bf0efb9816ed39ed",
    "servo_pwm-backlash-square": "38fdf19683e69cee",
    "servo_pwm-backlash-sine": "f71263ba84e0224b",
    "servo_pwm-backlash-triangle": "31cc2e38e52fe57d",
    "servo_pwm-backlash-trapezoid": "52c993df196fac1d",
    "servo_pwm-coulomb-square": "80c9e6ac890fba3b",
    "servo_pwm-coulomb-sine": "8019c5340529f015",
    "servo_pwm-coulomb-triangle": "57f9289bb91553d9",
    "servo_pwm-coulomb-trapezoid": "4db0a35bbf2761bb",
    "servo_pwm-quadratic-square": "ff661845b9f4c867",
    "servo_pwm-quadratic-sine": "38bcf8170c763d40",
    "servo_pwm-quadratic-triangle": "39037e78f70b54bb",
    "servo_pwm-quadratic-trapezoid": "28dacba65e0f1e15",
    "servo_pwm-all-square": "6aae777f7a708bef",
    "servo_pwm-all-sine": "bdfe11291a28c697",
    "servo_pwm-all-triangle": "42aef39b50d0ac3e",
    "servo_pwm-all-trapezoid": "c44a9a3716cc0e8b",
    "diverging": "d07369da27ead684",
}


def golden_digest(name):
    spec, (shape, amp, time_gain, periods) = GOLDEN_CASES[name]
    run = simulate(spec, shape=shape, amp=amp, time_gain=time_gain, periods=periods)
    h = hashlib.sha256()
    for arr in (
        run.trace.output,
        run.log.actuation,
        run.log.actuator_saturated,
        run.log.sensor_saturated,
        run.log.nonlinearity_deviation,
    ):
        h.update(arr.tobytes())
    h.update(bytes([run.diverged]))
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_simulation_output_is_bit_exact(name):
    assert plants.load_kernel() is not None  # the compiled stepper runs these
    assert golden_digest(name) == GOLDEN_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_python_stepper_output_is_bit_exact(monkeypatch, name):
    monkeypatch.setattr(plants, "load_kernel", lambda: None)
    assert golden_digest(name) == GOLDEN_DIGESTS[name]


def test_a_failed_build_falls_back_to_the_golden_digests(monkeypatch, capfd):
    # A compiler that is not there, under a command no cached object was
    # built with.
    monkeypatch.setattr(plants, "_kernel", None)
    monkeypatch.setattr(plants, "_COMPILE", ("loopstress-no-such-compiler", *plants._COMPILE[1:]))
    assert all(golden_digest(name) == GOLDEN_DIGESTS[name] for name in GOLDEN_CASES)
    assert plants._kernel is False
    err = capfd.readouterr().err
    assert err.count("\n") == 1 and "simulating in Python" in err


def test_a_compiler_error_falls_back_with_one_line(monkeypatch, capfd):
    # The compiler runs and fails: an option it does not know.
    monkeypatch.setattr(plants, "_kernel", None)
    monkeypatch.setattr(plants, "_COMPILE", (*plants._COMPILE, "-floopstress-no-such-option"))
    assert plants.load_kernel() is None
    assert golden_digest("servo_pwm-all-sine") == GOLDEN_DIGESTS["servo_pwm-all-sine"]
    err = capfd.readouterr().err
    assert err.count("\n") == 1 and "non-zero exit status" in err


def test_an_unwritable_cache_builds_in_a_private_directory(monkeypatch):
    cache = Path(plants.__file__).with_name("__pycache__")
    before = set(cache.glob("*.so"))
    monkeypatch.setattr(plants, "_kernel", None)
    # A command no cached object was built with, so the stepper is built.
    monkeypatch.setattr(plants, "_COMPILE", (*plants._COMPILE, "-DLOOPSTRESS_PRIVATE_BUILD"))
    monkeypatch.setattr(plants.os, "access", lambda path, mode: False)
    assert plants.load_kernel() is not None
    assert golden_digest("servo_pwm-all-sine") == GOLDEN_DIGESTS["servo_pwm-all-sine"]
    assert set(cache.glob("*.so")) == before


# ---------------------------------------------------------------------------
# the compiled stepper against _simulate, bit for bit
# ---------------------------------------------------------------------------
# A "lane" is one run on the compiled stepper, which steps several at once
# for run_lanes and one for run_plant; the run it must equal is _simulate's
# on the rendered reference, the stepper both fall back to.


def outcome(spec, reference):
    """Every array of ``run_plant``'s run as bytes, signed zeros included,
    and the divergence flag; or the message of the ValueError it raised."""
    try:
        run = run_plant(spec, reference)
    except ValueError as exc:
        return str(exc)
    arrays = (
        run.trace.reference, run.trace.output, run.log.actuation, run.log.actuator_saturated,
        run.log.sensor_saturated, run.log.nonlinearity_deviation,
    )
    return [(a.dtype.str, a.tobytes()) for a in arrays] + [run.diverged]


def assert_kernel_matches_simulate(spec, references):
    assert plants.load_kernel() is not None
    for reference in references:
        compiled = outcome(spec, reference)
        with mock.patch.object(plants, "load_kernel", lambda: None):
            assert outcome(spec, reference) == compiled


def golden_reference(shape, amp, time_gain, periods):
    return render_reference(
        TestCase(shape=shape, amp_gain=amp, time_gain=time_gain, periods=periods, sample_interval=0.001)
    )


@pytest.mark.parametrize("extra", sorted(GOLDEN_EXTRAS))
@pytest.mark.parametrize("plant", sorted(GOLDEN_PLANTS))
def test_lanes_match_run_plant_on_the_golden_specs(plant, extra):
    spec = GOLDEN_PLANTS[plant](GOLDEN_EXTRAS[extra])
    assert_kernel_matches_simulate(spec, [golden_reference(*p) for p in GOLDEN_POINTS.values()])


def test_lanes_truncate_a_diverging_lane_like_run_plant():
    spec, point = GOLDEN_CASES["diverging"]
    references = [golden_reference(*point), golden_reference(ShapeKind.SQUARE, 2.0, 0.5, 3)]
    assert_kernel_matches_simulate(spec, references)
    runs = [run_plant(spec, reference) for reference in references]
    assert all(run.diverged for run in runs)
    assert [run.trace.output.size for run in runs] == [1124, 2096]


def test_lanes_longer_than_a_block_of_reference_rows_match_run_plant():
    # Long references, with lengths at and around powers of two.
    spec = dc_servo_spec(extra_blocks=(backlash(0.05), quadratic_friction(0.002)))
    rng = np.random.default_rng(5)
    references = [rng.normal(0.0, 2.0, n) for n in (9000, 100, 8193, 4097, 4096)]
    assert_kernel_matches_simulate(spec, references)


@pytest.mark.parametrize("reference", [np.array([1.0]), np.array([0.0, math.nan])])
def test_lanes_reject_what_run_plant_rejects(reference):
    # Too short a reference, or a non-finite sample, on either stepper.
    for kernel in (plants.load_kernel, lambda: None):
        with mock.patch.object(plants, "load_kernel", kernel), pytest.raises(ValueError):
            run_plant(drone_spec(), reference)


def test_a_state_that_overflows_in_the_first_step_is_a_value_error(stepper):
    # Step 0 is never checked for divergence, so the output after it is
    # infinite; the quantiser then reads infinity.
    spec = dc_servo_spec(voltage_limit=0.0, sensor_range=0.0)
    with pytest.raises(ValueError, match="trace contains non-finite samples"):
        run_plant(spec, np.full(5, 1e307))


def test_lanes_are_silent_where_run_plant_is_and_give_its_bits(stepper):
    # The divergence limit, 1e6 times the peak, overflows to infinity
    # without a warning, as a Python float does.
    reference = np.array([0.0, 1e305, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = run_plant(drone_spec(), reference)
        lanes = run_lanes(drone_spec(), reference, [1.0], 1)
    assert not run.diverged and lanes.diverged == (False,)
    assert lanes.output[0].tobytes() == run.trace.output.tobytes()
    for name in run.log._fields:
        assert getattr(lanes.logs[0], name).tobytes() == getattr(run.log, name).tobytes(), name


def test_a_strided_reference_runs_like_its_copy(stepper):
    # Both steppers read a reference that is a view with a stride, as the
    # compiled one reads a contiguous copy.
    spec = dc_servo_spec(extra_blocks=(dead_zone(0.05), backlash(0.05), coulomb_friction(0.05),
                                       quadratic_friction(0.002)))
    reference = 8.0 * np.sin(2.0 * np.pi * np.arange(6000) * 0.001)
    strided = reference[::2]
    assert not strided.flags.c_contiguous
    assert outcome(spec, strided) == outcome(spec, strided.copy())
    period = reference[:2000:2]
    assert lanes_outcome(spec, period, [0.5, 1.0, 1.5], 3) == lanes_outcome(
        spec, period.copy(), [0.5, 1.0, 1.5], 3
    )


def bounds_pair(limit):
    """A (lo, hi) pair with lo < hi, zero bounds included."""
    return st.tuples(
        st.one_of(st.just(0.0), st.just(-0.0), st.floats(-limit, 0.0)),
        st.one_of(st.just(0.0), st.floats(0.0, limit)),
    ).filter(lambda p: p[0] < p[1])


@st.composite
def loop_specs(draw):
    model = draw(st.sampled_from(["drone_alt", "dc_servo"]))
    gains = st.floats(-3000.0, 60.0)  # negative gains make unstable loops
    if model == "drone_alt":
        physical = {"mass": draw(st.floats(0.05, 1.0)), "drag": draw(st.floats(0.0, 2.0))}
        controller = {
            "kp": draw(gains), "ki": draw(st.floats(-200.0, 20.0)),
            "kd": draw(st.floats(0.0, 0.2)), "deriv_tau": draw(st.floats(0.0, 0.05)),
        }
    else:
        physical = {
            "inertia": draw(st.floats(0.005, 0.05)), "damping": draw(st.floats(0.0, 0.1)),
            "torque_const": draw(st.floats(0.01, 0.1)),
            "nominal_speed": draw(st.floats(-2.0, 2.0)),
            "pwm_step": draw(st.one_of(st.just(0.0), st.floats(0.01, 0.5))),
        }
        controller = {
            "k_pos": draw(gains), "k_int": draw(st.floats(-200.0, 20.0)),
            "k_vel": draw(st.floats(0.0, 1.0)), "deriv_tau": draw(st.floats(0.0, 0.05)),
        }
    candidates = [
        actuator_saturation(*draw(bounds_pair(10.0))),
        sensor_saturation(*draw(bounds_pair(10.0))),
        quantizer(draw(st.floats(1e-4, 0.5))),
        dead_zone(draw(st.floats(0.0, 0.5))),
        backlash(draw(st.floats(0.0, 0.5))),
        coulomb_friction(draw(st.floats(0.0, 0.5))),
        quadratic_friction(draw(st.floats(0.0, 0.05))),
    ]
    keep = draw(st.lists(st.booleans(), min_size=len(candidates), max_size=len(candidates)))
    blocks = tuple(b for b, k in zip(candidates, keep) if k)
    # Coarse steps make stiff loops diverge within a few hundred samples.
    dt = draw(st.sampled_from([0.001, 0.01, 0.05]))
    return PlantSpec(
        model=model, physical=physical, controller=controller, blocks=blocks, sample_interval=dt
    )


loop_references = st.lists(
    st.tuples(
        st.sampled_from(list(ShapeKind)),
        st.one_of(st.just(0.0), st.floats(0.01, 5.0)),
        st.integers(3, 60),  # samples per period
        st.integers(1, 4),  # periods
    ).map(
        lambda p: p[1] * eval_shape(p[0], (np.arange(p[2] * p[3]) % p[2]) / p[2])
    ),
    min_size=1,
    max_size=40,
)


@given(spec=loop_specs(), references=loop_references)
@example(spec=dc_servo_spec(voltage_limit=0.0, sensor_range=0.0), references=[np.full(5, 1e307)])
@settings(max_examples=150, deadline=None)
def test_lanes_match_run_plant_on_random_loops(spec, references):
    assert_kernel_matches_simulate(spec, references)


def lanes_outcome(spec, period, amplitudes, periods):
    """Per lane of ``run_lanes``, what ``outcome`` gives but the reference;
    or the message of the ValueError it raised."""
    try:
        runs = run_lanes(spec, period, amplitudes, periods)
    except ValueError as exc:
        return str(exc)
    lanes = []
    for k, log in enumerate(runs.logs):
        arrays = (
            runs.output[k, :len(log.actuation)], log.actuation, log.actuator_saturated,
            log.sensor_saturated, log.nonlinearity_deviation,
        )
        lanes.append([(a.dtype.str, a.tobytes()) for a in arrays] + [runs.diverged[k]])
    return lanes


@given(
    spec=loop_specs(),
    periods=st.lists(
        st.tuples(
            st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=40).map(np.array),
            st.integers(1, 5),  # repeats
            st.lists(st.one_of(st.just(0.0), st.floats(0.0, 3.0)), min_size=1, max_size=20),
        ),
        min_size=1,
        max_size=30,
    ),
)
@settings(max_examples=100, deadline=None)
def test_repeated_periods_run_like_their_full_references(spec, periods):
    # A periodic reference runs the same on both steppers, and so do the
    # lanes that repeat one period at their own amplitudes, each like its
    # rendered reference.
    assert_kernel_matches_simulate(spec, [np.tile(p, k) for p, k, _ in periods])
    for period, repeats, amplitudes in periods:
        expected = [outcome(spec, a * np.tile(period, repeats)) for a in amplitudes]
        for kernel in (plants.load_kernel, lambda: None):
            with mock.patch.object(plants, "load_kernel", kernel):
                lanes = lanes_outcome(spec, period, amplitudes, repeats)
            if any(isinstance(e, str) for e in expected):
                assert lanes in [e for e in expected if isinstance(e, str)]
            else:
                assert lanes == [e[1:] for e in expected]


def test_repeated_periods_cross_reference_row_blocks_like_run_plant():
    # Periods of thousands of samples, and a short one repeated 1,500 times.
    spec = drone_spec(extra_blocks=(coulomb_friction(0.05),))
    rng = np.random.default_rng(8)
    periods = [rng.normal(0.0, 2.0, n) for n in (3000, 2999, 5000, 7)]
    repeats = [3, 2, 1, 1500]
    assert_kernel_matches_simulate(spec, [np.tile(p, k) for p, k in zip(periods, repeats)])
