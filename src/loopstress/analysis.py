"""Campaign result analysis.

Three families of checks turn raw test results into findings:

* **Metamorphic relations** between tests of the same shape.  MR1: a test
  that is at least as fast and at least as large (and strictly so in one of
  the two) should stress the loop strictly more (higher dnl).  MR2: among
  linear tests, the faster test should be filtered strictly more at every
  relevant component (compared at proportionally scaled frequencies).  MR3:
  the bandwidth estimated from different shapes should agree within a
  tolerance.  Violations point at behaviour worth explaining (saturation,
  friction, resonance) rather than at software bugs alone.
* **Bandwidth estimation**: the frequency at which the pooled degree of
  filtering first crosses 0.5.
* **Design-scope classification** of each test by its dnl.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .campaign import TestResult
from .signals import ShapeKind

__all__ = [
    "MrViolation",
    "check_mr1",
    "check_mr2",
    "BandwidthEstimate",
    "estimate_bandwidth",
    "check_mr3",
    "ScopeClass",
    "classify_scope",
    "SCATTER_HEADER",
    "DOF_HEADER",
    "export_plot_data",
]


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


# Largest number of elements in one pairwise temporary of the MR checkers.
_CHUNK_ELEMENTS = 1 << 20


def _shape_groups(results, indices) -> list[np.ndarray]:
    """``indices`` split by the shape of their result, each in ascending order."""
    groups: dict = {}
    for idx in indices:
        groups.setdefault(results[idx].case.shape, []).append(idx)
    return [np.array(g, dtype=np.intp) for g in groups.values()]


def _g_formatter(values):
    """``format(x, "g")`` through a memo: witnesses repeat a few values often.

    Every ``x`` must be a value of the float array ``values``.  0.0 and -0.0
    are equal keys that format apart, so zero is memoised when all zeros of
    ``values`` have one sign; otherwise each zero's sign is tested.
    """
    memo = {}
    signs = np.signbit(values[values == 0.0])
    if signs.size and (signs.all() or not signs.any()):
        memo[0.0] = "-0" if signs[0] else "0"

    def g(x) -> str:
        s = memo.get(x)
        if s is None:
            if x:
                s = memo[x] = format(x, "g")
            else:
                s = "-0" if math.copysign(1.0, x) < 0.0 else "0"
        return s

    return g


def check_mr1(results) -> tuple[MrViolation, ...]:
    """A same-shape test that is larger *and* at-least-as-fast (or vice versa)
    must show strictly higher dnl.  Returns one violation per ordered pair
    ``(i, j)`` for which that fails, in ascending ``(i, j)`` order."""
    results = list(results)
    amp = np.array([r.case.amp_gain for r in results], dtype=float)
    speed = np.array([r.case.time_gain for r in results], dtype=float)
    dnl = np.array([r.dnl for r in results], dtype=float)
    firsts, seconds = [], []
    for idx in _shape_groups(results, range(len(results))):
        a, t, d = amp[idx], speed[idx], dnl[idx]
        rows = max(1, _CHUNK_ELEMENTS // idx.size)
        for start in range(0, idx.size, rows):
            ai = a[start:start + rows, None]
            ti = t[start:start + rows, None]
            di = d[start:start + rows, None]
            # i dominates j (strictly more stressful), yet dnl_i is not above dnl_j.
            bad = ((ai > a) & (ti >= t)) | ((ai >= a) & (ti > t))
            bad &= ~(di > d)
            r, c = np.nonzero(bad)
            firsts.append(idx[r + start])
            seconds.append(idx[c])
    if not firsts:
        return ()
    first, second = np.concatenate(firsts), np.concatenate(seconds)
    order = np.lexsort((second, first))
    g = _g_formatter(dnl)
    violations = []
    for i, j in zip(first[order].tolist(), second[order].tolist()):
        di, dj = results[i].dnl, results[j].dnl
        violations.append(
            MrViolation(
                relation="MR1",
                subjects=(i, j),
                witnesses=(di, dj),
                detail=f"test {i} dominates test {j} but dnl {g(di)} <= {g(dj)}",
            )
        )
    return tuple(violations)


def _match_components(f, t_fast, freq, speed, valid, tol):
    """Partners of a faster test's components ``f`` (speed ``t_fast``) in
    slower tests with padded components ``freq``/``valid`` and speeds and
    bin tolerances ``speed``/``tol``.

    Each component is scaled to ``(f * speed) / t_fast``, as in MR2, and
    matched to the nearest valid slow component; of equally near ones the
    first wins, and only a distance below infinity matches.  Returns the
    matched column and whether it lies within the tolerance, both shaped
    (slower test, component).
    """
    with np.errstate(all="ignore"):
        target = (f * speed[:, None]) / t_fast
        dist = np.abs(freq[:, None, :] - target[:, :, None])
    dist[~valid[:, None, :] | np.isnan(dist)] = np.inf
    best = dist.argmin(axis=2)
    best_dist = np.take_along_axis(dist, best[:, :, None], axis=2)[:, :, 0]
    return best, (best_dist < np.inf) & ~(best_dist > tol[:, None])


def check_mr2(
    results,
    dnl_threshold: float,
    bin_tolerance: float | None = None,
    equality_tolerance: float = 1e-6,
) -> tuple[tuple[MrViolation, ...], int]:
    """Faster linear tests must be filtered strictly more, component by component.

    For each same-shape pair of linear tests (both dnl under the threshold)
    with ``T_i > T_j``, every relevant component ``f`` of the faster test is
    compared against the slower test's component at ``f * T_j / T_i``
    (matched to the nearest component within ``bin_tolerance``, which
    defaults to half the slower trace's DFT bin width; the first of equally
    near components wins).  The relation expects ``dof_i(f) > dof_j(matched)``;
    differences smaller than ``equality_tolerance`` are not flagged.  Returns
    the violations in ``(i, j, component)`` order plus the number of
    components that found no partner bin.
    """
    results = list(results)
    linear = [
        idx
        for idx, r in enumerate(results)
        if not r.diverged and r.dnl < dnl_threshold
    ]
    min_gap = max(equality_tolerance, 0.0)
    skipped = 0
    found = []  # (i, j, component of i, matched component of j) arrays
    witnessed = []  # frequencies and dofs that violations can name
    for idx in _shape_groups(results, linear):
        group = [results[k] for k in idx]
        width = max(len(r.components) for r in group)
        if width == 0:
            continue
        # Components padded to ``width``; ``valid`` marks those with a dof.
        freq = np.zeros((idx.size, width))
        dof = np.zeros((idx.size, width))
        valid = np.zeros((idx.size, width), dtype=bool)
        for row, r in enumerate(group):
            for k, comp in enumerate(r.components):
                freq[row, k] = comp.frequency
                if comp.dof is not None:
                    dof[row, k] = comp.dof
                    valid[row, k] = True
        witnessed += [freq[valid], dof[valid]]
        speed = np.array([r.case.time_gain for r in group], dtype=float)
        if bin_tolerance is None:
            tol = np.array([0.5 / r.case.duration for r in group], dtype=float)
        else:
            tol = np.full(idx.size, bin_tolerance, dtype=float)
        # Tests with equal speed, tolerance, component frequencies and dof
        # mask pick the same partners, so the nearest-component search runs
        # once per pair of such layouts.
        layouts: dict = {}
        layout = np.array(
            [
                layouts.setdefault(row.tobytes(), len(layouts))
                for row in np.column_stack([speed, tol, freq, valid])
            ]
        )
        first_of = np.unique(layout, return_index=True)[1]
        for lay, a in enumerate(first_of):
            comps = np.flatnonzero(valid[a])
            slower = np.flatnonzero(speed[a] > speed)
            if comps.size == 0 or slower.size == 0:
                continue
            rows = np.flatnonzero(layout == lay)
            step = max(1, _CHUNK_ELEMENTS // (comps.size * width))
            for start in range(0, slower.size, step):
                js = slower[start:start + step]
                kinds, kind_of = np.unique(layout[js], return_inverse=True)
                b = first_of[kinds]
                best, hit = _match_components(
                    freq[a, comps], speed[a], freq[b], speed[b], valid[b], tol[b]
                )
                best, hit = best[kind_of], hit[kind_of]
                skipped += rows.size * (hit.size - int(np.count_nonzero(hit)))
                partner_dof = dof[js[:, None], best]
                row_step = max(1, _CHUNK_ELEMENTS // hit.size)
                for row_start in range(0, rows.size, row_step):
                    fast = rows[row_start:row_start + row_step]
                    with np.errstate(all="ignore"):
                        gap = partner_dof - dof[fast[:, None], comps][:, None, :]
                    f, j, c = np.nonzero((gap >= min_gap) & hit)
                    found.append((idx[fast[f]], idx[js[j]], comps[c], best[j, c]))
    if not found:
        return (), skipped
    first, second, comp_k, partner_k = (np.concatenate(a) for a in zip(*found))
    order = np.lexsort((comp_k, second, first))
    g = _g_formatter(np.concatenate(witnessed))
    violations = []
    for i, j, k, m in zip(
        first[order].tolist(),
        second[order].tolist(),
        comp_k[order].tolist(),
        partner_k[order].tolist(),
    ):
        comp = results[i].components[k]
        partner = results[j].components[m]
        violations.append(
            MrViolation(
                relation="MR2",
                subjects=(i, j),
                witnesses=(comp.frequency, comp.dof, partner.frequency, partner.dof),
                detail=(
                    f"dof of test {i} at {g(comp.frequency)} Hz is "
                    f"{g(comp.dof)}, not above dof {g(partner.dof)} of "
                    f"slower test {j} at {g(partner.frequency)} Hz"
                ),
            )
        )
    return tuple(violations), skipped


class BandwidthStatus(str, enum.Enum):
    OK = "ok"
    ABOVE_RANGE = "undefined-above-range"
    BELOW_RANGE = "undefined-below-range"


@dataclass(frozen=True)
class BandwidthEstimate:
    """Frequency where the pooled degree of filtering first crosses 0.5."""

    value: float | None
    status: BandwidthStatus
    n_points: int = 0

    @property
    def defined(self) -> bool:
        return self.status is BandwidthStatus.OK


def estimate_bandwidth(results, dnl_threshold: float) -> BandwidthEstimate:
    """Pool the (frequency, dof) points of all linear results and locate the
    first crossing of dof = 0.5 by linear interpolation."""
    points = []
    for r in results:
        if r.diverged or not r.dnl < dnl_threshold:
            continue
        for comp in r.components:
            if comp.dof is not None:
                points.append((comp.frequency, comp.dof))
    if len(points) < 2:
        raise ValueError("bandwidth estimation needs at least two linear components")
    points.sort()
    n = len(points)
    cross = next((k for k, (_, d) in enumerate(points) if d >= 0.5), None)
    if cross is None:
        return BandwidthEstimate(None, BandwidthStatus.ABOVE_RANGE, n)
    f1, d1 = points[cross]
    if cross == 0:
        if d1 > 0.5:
            return BandwidthEstimate(None, BandwidthStatus.BELOW_RANGE, n)
        return BandwidthEstimate(f1, BandwidthStatus.OK, n)
    f0, d0 = points[cross - 1]
    if f1 == f0 or d1 == d0:
        value = f1
    else:
        value = f0 + (0.5 - d0) * (f1 - f0) / (d1 - d0)
    return BandwidthEstimate(float(value), BandwidthStatus.OK, n)


def check_mr3(
    bandwidths: dict,
    epsilon: float | None = None,
) -> tuple[tuple[MrViolation, ...], tuple[str, ...]]:
    """Bandwidth estimates from different shapes must agree within ``epsilon``.

    ``bandwidths`` maps shape -> BandwidthEstimate (or plain float).
    ``epsilon`` defaults to 20% of the mean defined bandwidth.  Shapes whose
    estimate is undefined are returned separately, not flagged.
    """
    defined = {}
    undefined = []
    for shape, est in bandwidths.items():
        name = shape.value if isinstance(shape, ShapeKind) else str(shape)
        if isinstance(est, BandwidthEstimate):
            if est.defined:
                defined[name] = est.value
            else:
                undefined.append(name)
        elif est is None:
            undefined.append(name)
        else:
            defined[name] = float(est)
    if epsilon is None:
        if not defined:
            return (), tuple(sorted(undefined))
        epsilon = 0.2 * (sum(defined.values()) / len(defined))
    names = sorted(defined)
    violations = []
    for a_idx, name_a in enumerate(names):
        for name_b in names[a_idx + 1 :]:
            fa, fb = defined[name_a], defined[name_b]
            if abs(fa - fb) >= epsilon:
                violations.append(
                    MrViolation(
                        relation="MR3",
                        subjects=(name_a, name_b),
                        witnesses=(fa, fb, epsilon),
                        detail=(
                            f"bandwidth {fa:g} Hz ({name_a}) vs {fb:g} Hz "
                            f"({name_b}) differ by {abs(fa - fb):g} >= {epsilon:g}"
                        ),
                    )
                )
    return tuple(violations), tuple(sorted(undefined))


class ScopeClass(str, enum.Enum):
    WITHIN = "within"
    BOUNDARY_STRESS = "boundary_stress"
    OUTSIDE = "outside"


def classify_scope(
    result: TestResult,
    dnl_threshold: float,
    boundary_factor: float = 0.5,
) -> ScopeClass:
    """Place one test relative to the loop's design scope.

    dnl below ``boundary_factor * dnl_threshold`` is comfortably linear
    (within scope); between that and the threshold the loop is stressed but
    still linear (boundary); at or above the threshold (divergence included,
    via the infinite dnl sentinel) the test is outside the scope.
    """
    if not 0.0 < boundary_factor < 1.0:
        raise ValueError("boundary_factor must lie strictly between 0 and 1")
    if result.dnl >= dnl_threshold:
        return ScopeClass.OUTSIDE
    if result.dnl >= boundary_factor * dnl_threshold:
        return ScopeClass.BOUNDARY_STRESS
    return ScopeClass.WITHIN


SCATTER_HEADER = (
    "shape",
    "f_main",
    "a_main",
    "dnl",
    "scope",
    "actuator_sat_fraction",
    "sensor_sat_fraction",
    "deviation_mean",
)

DOF_HEADER = ("shape", "frequency", "dof")


def export_plot_data(
    results,
    dnl_threshold: float,
    boundary_factor: float = 0.5,
) -> tuple[list[tuple], list[tuple]]:
    """Flatten results into two plot-ready tables (rows in result order).

    Scatter table: one row per test with its main frequency, amplitude, dnl,
    scope class and instrumentation summaries.  Dof table: one row per
    relevant component of each linear test.
    """
    scatter = []
    dof_rows = []
    for r in results:
        shape = r.case.shape
        scope = classify_scope(r, dnl_threshold, boundary_factor)
        scatter.append(
            (
                shape.value,
                r.case.time_gain,
                r.case.amp_gain,
                r.dnl,
                scope.value,
                r.actuator_saturation_fraction,
                r.sensor_saturation_fraction,
                r.deviation_mean,
            )
        )
        if not r.diverged and r.dnl < dnl_threshold:
            for comp in r.components:
                if comp.dof is not None:
                    dof_rows.append((shape.value, comp.frequency, comp.dof))
    return scatter, dof_rows
