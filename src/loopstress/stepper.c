/* The closed loop of loopstress.plants, compiled: ``_simulate`` in
 * plants.py with the same float operations in the same order, so both give
 * the same bits.  Keep the two in step.
 *
 * One call steps ``lanes`` runs of one spec over equally long references
 * that share one period ``u``: lane k's reference at step i is
 * ``amp[k] * u[i % spp]``, the single multiply with which
 * ``signals.render_reference`` renders a test.  ``_simulate`` takes the
 * same arguments and fills the same rows, lane by lane.  ``run_plant`` is
 * the call of one lane with ``u`` its whole reference and an amplitude of
 * 1.0, which is exact.  The loop's state is a chain of dependent
 * divisions and multiplies, so one run waits on their latency; the step
 * loop therefore advances up to ``BATCH`` lanes per step, whose chains
 * overlap.  On the servo with its quantiser, 8,499 steps of a sine, a
 * lane-step took 52 ns alone, 26 ns with 2 lanes and 14 ns with 4 or 8 (a
 * 2-vCPU x86-64 VM).
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

/* Lanes stepped together: 16 gained nothing over 8 in that measurement. */
#define BATCH 8

/* One lane's loop state. */
struct lane {
    double x, v, integ, dfilt, prev_meas, bl_state;
    int live;
};

/* ``p`` holds dt, gain, damping, inertia, kp, ki, kd, alpha, pwm_step,
 * sens_lo, sens_hi, sens_step, dz_hw, the backlash play (halved below),
 * act_lo, act_hi, coulomb, quad and quad_lin.  Lane k runs ``n`` steps of
 * the reference ``amp[k] * u[i % spp]`` and stops early when its output
 * leaves ``limit[k]``.  Per step, it writes row k (``n`` entries from
 * ``k * n``) of the output at the step's start, the actuation, the
 * actuator and sensor flags and the deviation; it sets ``steps[k]`` to the
 * steps run and ``diverged[k]``. */
void simulate(const double *p, int blocks, const double *u, long spp, long n, long lanes,
              const double *amp, const double *limit, double *out, double *act,
              unsigned char *a_sat, unsigned char *s_sat, double *dev, long *steps,
              int *diverged)
{
    const double dt = p[0], gain = p[1], damping = p[2], inertia = p[3];
    const double kp = p[4], ki = p[5], kd = p[6], alpha = p[7], pwm_step = p[8];
    const double sens_lo = p[9], sens_hi = p[10], sens_step = p[11];
    const double dz_hw = p[12], bl_half = p[13] / 2.0, act_lo = p[14], act_hi = p[15];
    const double coulomb = p[16], quad = p[17], quad_lin = p[18];

    for (long k0 = 0; k0 < lanes; k0 += BATCH) {
        const int batch = lanes - k0 < BATCH ? (int)(lanes - k0) : BATCH;
        struct lane s[BATCH];
        int running = batch;
        for (int k = 0; k < batch; k++) {
            s[k] = (struct lane){0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1};
            steps[k0 + k] = n;
            diverged[k0 + k] = 0;
        }
        long j = 0; /* i % spp */
        for (long i = 0; i < n && running > 0; i++) {
            for (int k = 0; k < batch; k++) {
                struct lane *l = &s[k];
                if (!l->live)
                    continue;
                const long o = (k0 + k) * n + i;
                double x = l->x, v = l->v;
                out[o] = x;

                double meas = x;
                s_sat[o] = 0;
                if (blocks & SENSOR_SAT) {
                    if (meas > sens_hi) {
                        meas = sens_hi;
                        s_sat[o] = 1;
                    } else if (meas < sens_lo) {
                        meas = sens_lo;
                        s_sat[o] = 1;
                    }
                }
                if (blocks & QUANTIZER)
                    meas = floor(meas / sens_step + 0.5) * sens_step;

                const double r = amp[k0 + k] * u[j];
                double e = r - meas;
                double d_raw = i == 0 ? 0.0 : (meas - l->prev_meas) / dt;
                l->prev_meas = meas;
                l->dfilt += alpha * (d_raw - l->dfilt);
                double cmd = ((kp * e) + l->integ) - (kd * l->dfilt);

                double d = 0.0;
                if (blocks & DEAD_ZONE) {
                    double shaped = cmd > dz_hw ? cmd - dz_hw : (cmd < -dz_hw ? cmd + dz_hw : 0.0);
                    d += fabs(shaped - cmd);
                    cmd = shaped;
                }
                if (blocks & BACKLASH) {
                    if (cmd > l->bl_state + bl_half)
                        l->bl_state = cmd - bl_half;
                    else if (cmd < l->bl_state - bl_half)
                        l->bl_state = cmd + bl_half;
                    d += fabs(l->bl_state - cmd);
                    cmd = l->bl_state;
                }
                a_sat[o] = 0;
                if (blocks & ACTUATOR_SAT) {
                    if (cmd > act_hi) {
                        cmd = act_hi;
                        a_sat[o] = 1;
                    } else if (cmd < act_lo) {
                        cmd = act_lo;
                        a_sat[o] = 1;
                    }
                }
                if (pwm_step > 0.0)
                    cmd = floor(cmd / pwm_step + 0.5) * pwm_step;
                act[o] = cmd;
                l->integ += (ki * e) * dt;

                /* Each friction's deviation from its linear counterpart:
                 * no force, and the drag matched at the nominal speed. */
                double fric = 0.0, fdev = 0.0;
                if ((blocks & COULOMB) && v != 0.0) {
                    fric += v > 0.0 ? -coulomb : coulomb;
                    fdev += fabs(coulomb);
                }
                if (blocks & QUADRATIC) {
                    const double fq = ((-quad) * v) * fabs(v);
                    fric += fq;
                    fdev += fabs(fq - ((-quad_lin) * v));
                }
                dev[o] = d + fdev;

                v += ((((gain * cmd) + fric) - (damping * v)) / inertia) * dt;
                x += v * dt;
                l->x = x;
                l->v = v;
                /* As in _simulate, step 0 never ends the run. */
                if (i >= 1 && !(fabs(x) <= limit[k0 + k] && isfinite(v))) {
                    l->live = 0;
                    running--;
                    steps[k0 + k] = i + 1;
                    diverged[k0 + k] = 1;
                }
            }
            if (++j == spp)
                j = 0;
        }
    }
}
