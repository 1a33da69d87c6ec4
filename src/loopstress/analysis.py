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


@dataclass(frozen=True)
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


def _dominates(a: TestResult, b: TestResult) -> bool:
    """Strictly-more-stressful partial order used by MR1."""
    ai, ti = a.case.amp_gain, a.case.time_gain
    aj, tj = b.case.amp_gain, b.case.time_gain
    return (ai > aj and ti >= tj) or (ai >= aj and ti > tj)


def check_mr1(results) -> tuple[MrViolation, ...]:
    """A same-shape test that is larger *and* at-least-as-fast (or vice versa)
    must show strictly higher dnl.  Returns one violation per ordered pair
    for which that fails."""
    results = list(results)
    violations = []
    for i, ri in enumerate(results):
        for j, rj in enumerate(results):
            if i == j or ri.case.shape is not rj.case.shape:
                continue
            if _dominates(ri, rj) and not ri.dnl > rj.dnl:
                violations.append(
                    MrViolation(
                        relation="MR1",
                        subjects=(i, j),
                        witnesses=(ri.dnl, rj.dnl),
                        detail=(
                            f"test {i} dominates test {j} but dnl "
                            f"{ri.dnl:g} <= {rj.dnl:g}"
                        ),
                    )
                )
    return tuple(violations)


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
    defaults to half the slower trace's DFT bin width).  The relation
    expects ``dof_i(f) > dof_j(matched)``; differences smaller than
    ``equality_tolerance`` are not flagged.  Returns the violations plus the
    number of components that found no partner bin.
    """
    results = list(results)
    linear = [
        (idx, r)
        for idx, r in enumerate(results)
        if not r.diverged and r.dnl < dnl_threshold
    ]
    violations = []
    skipped = 0
    for i, ri in linear:
        for j, rj in linear:
            if i == j or ri.case.shape is not rj.case.shape:
                continue
            ti, tj = ri.case.time_gain, rj.case.time_gain
            if not ti > tj:
                continue
            tol = bin_tolerance
            if tol is None:
                tol = 0.5 / rj.case.duration
            for comp in ri.components:
                if comp.dof is None:
                    continue
                target = comp.frequency * tj / ti
                partner = None
                partner_dist = math.inf
                for cj in rj.components:
                    if cj.dof is None:
                        continue
                    dist = abs(cj.frequency - target)
                    if dist < partner_dist:
                        partner, partner_dist = cj, dist
                if partner is None or partner_dist > tol:
                    skipped += 1
                    continue
                if partner.dof - comp.dof >= max(equality_tolerance, 0.0):
                    violations.append(
                        MrViolation(
                            relation="MR2",
                            subjects=(i, j),
                            witnesses=(
                                comp.frequency,
                                comp.dof,
                                partner.frequency,
                                partner.dof,
                            ),
                            detail=(
                                f"dof of test {i} at {comp.frequency:g} Hz is "
                                f"{comp.dof:g}, not above dof {partner.dof:g} of "
                                f"slower test {j} at {partner.frequency:g} Hz"
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
