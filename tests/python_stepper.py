"""The closed loop of ``stepper.c`` in Python: the oracle the tests hold the
compiled stepper to, bit for bit.

``simulate`` takes the arguments of ``stepper.c``'s ``simulate`` and fills
the same rows, with the same float operations in the same order.  A test
runs the package on it by patching ``plants.load_kernel`` to
``lambda: python_stepper.simulate``.
"""
from __future__ import annotations

import math
from itertools import cycle, islice

from loopstress.records import _BLOCKS


def simulate(p, blocks, u, spp, n, lanes, amp, limit, out, act, a_sat, s_sat, dev, steps,
             diverged):
    """``simulate`` of ``stepper.c`` in Python, on the same arguments, which
    must give the same bits.  It steps the lanes one after another, each
    from its own ``(a * u).tolist()``.
    """
    (dt, gain, damping, inertia, kp, ki, kd, alpha, pwm_step, sens_lo, sens_hi, sens_step,
     dz_hw, play, act_lo, act_hi, coulomb, quad, quad_lin) = p.tolist()
    sensor_sat, quantize, dead, lash, actuator_sat, coulombic, quadratic = (
        bool(blocks & b.bit) for b in _BLOCKS.values()
    )
    bl_half = play / 2.0
    # What C hoists out of its loop: constant signs, magnitudes and tests.
    neg_coulomb, abs_coulomb, neg_quad, neg_quad_lin = -coulomb, abs(coulomb), -quad, -quad_lin
    pwm, isfinite = pwm_step > 0.0, math.isfinite
    for k in range(lanes):
        x = v = integ = dfilt = bl_state = 0.0
        prev_meas = None  # no derivative at step 0
        xs, acts, a_flags, s_flags, devs = [], [], [], [], []
        lim, gone = float(limit[k]), False
        for r in islice(cycle((amp[k] * u).tolist()), n):
            xs.append(x)

            meas = x
            if sensor_sat:
                sflag = False
                if meas > sens_hi:
                    meas, sflag = sens_hi, True
                elif meas < sens_lo:
                    meas, sflag = sens_lo, True
                s_flags.append(sflag)
            if quantize:
                meas = _floor(meas / sens_step + 0.5) * sens_step

            e = r - meas
            d_raw = 0.0 if prev_meas is None else (meas - prev_meas) / dt
            prev_meas = meas
            dfilt += alpha * (d_raw - dfilt)
            cmd = kp * e + integ - kd * dfilt

            d = 0.0
            if dead:
                shaped = cmd - dz_hw if cmd > dz_hw else (cmd + dz_hw if cmd < -dz_hw else 0.0)
                d += abs(shaped - cmd)
                cmd = shaped
            if lash:
                if cmd > bl_state + bl_half:
                    bl_state = cmd - bl_half
                elif cmd < bl_state - bl_half:
                    bl_state = cmd + bl_half
                d += abs(bl_state - cmd)
                cmd = bl_state
            aflag = False
            if actuator_sat:
                if cmd > act_hi:
                    cmd, aflag = act_hi, True
                elif cmd < act_lo:
                    cmd, aflag = act_lo, True
            if pwm:  # duty-cycle averaged PWM: quantised drive voltage
                cmd = _floor(cmd / pwm_step + 0.5) * pwm_step
            a_flags.append(aflag)
            acts.append(cmd)
            integ += ki * e * dt

            fric = fdev = 0.0
            if coulombic and v != 0.0:
                fric += neg_coulomb if v > 0.0 else coulomb
                fdev += abs_coulomb
            if quadratic:
                fq = neg_quad * v * abs(v)
                fric += fq
                fdev += abs(fq - neg_quad_lin * v)
            devs.append(d + fdev)

            v += (gain * cmd + fric - damping * v) / inertia * dt
            x += v * dt
            if not (abs(x) <= lim and isfinite(v)) and len(xs) >= 2:  # step 0 never ends it
                gone = True
                break
        m = len(xs)
        out[k, :m] = xs
        act[k, :m] = acts
        a_sat[k, :m] = a_flags
        s_sat[k, :m] = s_flags if sensor_sat else False
        dev[k, :m] = devs
        steps[k] = m
        diverged[k] = gone


def _floor(y: float):
    """``math.floor`` as C's ``floor`` in the compiled stepper: infinities
    and NaN pass through instead of raising."""
    return math.floor(y) if math.isfinite(y) else y
