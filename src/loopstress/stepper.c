/* The closed loop of loopstress.plants, compiled: ``_simulate`` in
 * plants.py with the same float operations in the same order, so both give
 * the same bits.  Keep the two in step.
 *
 * plants.load_kernel builds this file with ``-O2 -fPIC -shared
 * -ffp-contract=off`` and nothing else.  Those flags are load-bearing:
 * -ffp-contract=off stops the compiler from fusing a multiply and an add
 * into one instruction with a single rounding, and -ffast-math or
 * -march=native would let it reorder, fuse or approximate float
 * operations.  Any of these changes results in the last bits.  The clips
 * are branches, not fmin/fmax, so the signed zeros come out as in Python.
 */
#include <math.h>

/* Bits of ``blocks``: the optional blocks that are attached. */
enum {
    SENSOR_SAT = 1, QUANTIZER = 2, DEAD_ZONE = 4, BACKLASH = 8,
    ACTUATOR_SAT = 16, COULOMB = 32, QUADRATIC = 64,
};

/* ``p`` holds dt, gain, damping, inertia, kp, ki, kd, alpha, pwm_step,
 * sens_lo, sens_hi, sens_step, dz_hw, bl_half, act_lo, act_hi, coulomb and
 * quad.  Per step, writes the output and velocity at the step's start, the
 * actuation, the actuator flag and the dead zone's and backlash's
 * deviation; returns the steps run and sets ``*diverged``. */
long simulate(const double *p, int blocks, const double *ref, long n, double limit,
              double *out, double *vel, double *act, unsigned char *a_sat,
              double *dev, int *diverged)
{
    const double dt = p[0], gain = p[1], damping = p[2], inertia = p[3];
    const double kp = p[4], ki = p[5], kd = p[6], alpha = p[7], pwm_step = p[8];
    const double sens_lo = p[9], sens_hi = p[10], sens_step = p[11];
    const double dz_hw = p[12], bl_half = p[13], act_lo = p[14], act_hi = p[15];
    const double coulomb = p[16], quad = p[17];
    double x = 0.0, v = 0.0, integ = 0.0, dfilt = 0.0, prev_meas = 0.0, bl_state = 0.0;

    *diverged = 0;
    for (long i = 0; i < n; i++) {
        out[i] = x;
        vel[i] = v;

        double meas = x;
        if (blocks & SENSOR_SAT) {
            if (meas > sens_hi)
                meas = sens_hi;
            else if (meas < sens_lo)
                meas = sens_lo;
        }
        if (blocks & QUANTIZER)
            meas = floor(meas / sens_step + 0.5) * sens_step;

        double e = ref[i] - meas;
        double d_raw = i == 0 ? 0.0 : (meas - prev_meas) / dt;
        prev_meas = meas;
        dfilt += alpha * (d_raw - dfilt);
        double u = ((kp * e) + integ) - (kd * dfilt);

        double d = 0.0;
        if (blocks & DEAD_ZONE) {
            double shaped = u > dz_hw ? u - dz_hw : (u < -dz_hw ? u + dz_hw : 0.0);
            d += fabs(shaped - u);
            u = shaped;
        }
        if (blocks & BACKLASH) {
            if (u > bl_state + bl_half)
                bl_state = u - bl_half;
            else if (u < bl_state - bl_half)
                bl_state = u + bl_half;
            d += fabs(bl_state - u);
            u = bl_state;
        }
        dev[i] = d;
        a_sat[i] = 0;
        if (blocks & ACTUATOR_SAT) {
            if (u > act_hi) {
                u = act_hi;
                a_sat[i] = 1;
            } else if (u < act_lo) {
                u = act_lo;
                a_sat[i] = 1;
            }
        }
        if (pwm_step > 0.0)
            u = floor(u / pwm_step + 0.5) * pwm_step;
        act[i] = u;
        integ += (ki * e) * dt;

        double fric = 0.0;
        if ((blocks & COULOMB) && v != 0.0)
            fric += v > 0.0 ? -coulomb : coulomb;
        if (blocks & QUADRATIC)
            fric += ((-quad) * v) * fabs(v);

        v += ((((gain * u) + fric) - (damping * v)) / inertia) * dt;
        x += v * dt;
        /* As in _simulate, step 0 never ends the run. */
        if (i >= 1 && !(fabs(x) <= limit && isfinite(v))) {
            *diverged = 1;
            return i + 1;
        }
    }
    return n;
}
