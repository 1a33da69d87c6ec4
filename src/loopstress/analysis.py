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

:func:`analyze` runs all three on a campaign's results, read as columns
(``records.ResultColumns``), and returns the ``mr_report.json`` payload
with the two plot tables.

MR1 and MR2 live in ``mr1``, ``mr2`` and ``mr_summary``, whose public names
this module re-exports.  Their summaries are counted over per-test columns,
not built from the violating pairs, so their cost does not grow with the
number of violations; pairs are listed only for the few tests that can hold
a top record.  :func:`list_violations` (``--full-violations``) is the one
code that lists every pair, and it hands them to a sink.  Since the counts
come first, the CLI prints the record count and an estimated file size
before listing, and exits 3 without writing when the estimate exceeds the
free space of the output's file system.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from .mr1 import check_mr1, list_mr1
from .mr2 import MR2_TOLERANCE, check_mr2, list_mr2
from .mr_summary import TOP_K, MrSummary
from .records import MrViolation, ResultColumns, TestResult
from .signals import ShapeKind

__all__ = [
    "MrSummary",
    "TOP_K",
    "MR2_TOLERANCE",
    "BOUNDARY_FACTOR",
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
    "list_violations",
    "analyze",
]


# A test is within scope below this share of the dnl threshold.
BOUNDARY_FACTOR = 0.5


class BandwidthStatus(str, enum.Enum):
    OK = "ok"
    ABOVE_RANGE = "undefined-above-range"
    BELOW_RANGE = "undefined-below-range"
    INSUFFICIENT = "insufficient-data"


class BandwidthEstimate(NamedTuple):
    """Frequency where the pooled degree of filtering first crosses 0.5."""

    value: float | None
    status: BandwidthStatus
    n_points: int = 0

    @property
    def defined(self) -> bool:
        return self.status is BandwidthStatus.OK


def estimate_bandwidth(results, dnl_threshold: float) -> BandwidthEstimate:
    """Pool the (frequency, dof) points of all linear results and locate the
    first crossing of dof = 0.5 by linear interpolation.  Fewer than two
    points give status ``INSUFFICIENT`` with no value and ``n_points`` 0."""
    cols = ResultColumns.of(results)
    linear = cols.take(np.flatnonzero(~cols.diverged & (cols.dnl < dnl_threshold)))
    freq, dof = linear.frequency[linear.has_dof], linear.dof[linear.has_dof]
    if freq.size < 2:
        return BandwidthEstimate(None, BandwidthStatus.INSUFFICIENT, 0)
    order = np.lexsort((dof, freq))  # the stable sort of the (frequency, dof) pairs
    freq, dof = freq[order].tolist(), dof[order].tolist()
    n = len(freq)
    cross = next((k for k, d in enumerate(dof) if d >= 0.5), None)
    if cross is None:
        return BandwidthEstimate(None, BandwidthStatus.ABOVE_RANGE, n)
    f1, d1 = freq[cross], dof[cross]
    if cross == 0:
        if d1 > 0.5:
            return BandwidthEstimate(None, BandwidthStatus.BELOW_RANGE, n)
        return BandwidthEstimate(f1, BandwidthStatus.OK, n)
    f0, d0 = freq[cross - 1], dof[cross - 1]
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

    ``bandwidths`` maps shape -> :class:`BandwidthEstimate`.  ``epsilon``
    defaults to 20% of the mean defined bandwidth.  Shapes whose estimate is
    undefined are returned separately, not flagged.
    """
    defined = {}
    undefined = []
    for shape, est in bandwidths.items():
        name = shape.value if isinstance(shape, ShapeKind) else str(shape)
        if est.defined:
            defined[name] = est.value
        else:
            undefined.append(name)
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


def classify_scope(result: TestResult, dnl_threshold: float) -> ScopeClass:
    """Place one test relative to the loop's design scope.

    dnl below ``BOUNDARY_FACTOR * dnl_threshold`` is comfortably linear
    (within scope); between that and the threshold the loop is stressed but
    still linear (boundary); at or above the threshold (divergence included,
    via the infinite dnl sentinel) the test is outside the scope.
    """
    if result.dnl >= dnl_threshold:
        return ScopeClass.OUTSIDE
    if result.dnl >= BOUNDARY_FACTOR * dnl_threshold:
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

_SCOPE_COLUMN = SCATTER_HEADER.index("scope")


def export_plot_data(results, dnl_threshold: float) -> tuple[list[tuple], list[tuple]]:
    """Flatten results into two plot-ready tables (rows in result order).

    Scatter table: one row per test with its main frequency, amplitude, dnl,
    scope class (by :func:`classify_scope`'s two comparisons, on the dnl
    column) and instrumentation summaries.  Dof table: one row per relevant
    component of each linear test.
    """
    cols = ResultColumns.of(results)
    names = [s.value for s in cols.shapes]
    shape = [names[code] for code in cols.shape.tolist()]
    dnl = cols.dnl
    scopes = [s.value for s in ScopeClass]  # within, boundary_stress, outside: codes 0 to 2
    boundary = np.where(dnl >= BOUNDARY_FACTOR * dnl_threshold, 1, 0)
    scope = np.where(dnl >= dnl_threshold, 2, boundary)
    scatter = list(zip(
        shape, cols.time_gain.tolist(), cols.amp_gain.tolist(), dnl.tolist(),
        [scopes[code] for code in scope.tolist()],
        cols.actuator_saturation_fraction.tolist(), cols.sensor_saturation_fraction.tolist(),
        cols.deviation_mean.tolist(),
    ))
    linear = cols.take(np.flatnonzero(~cols.diverged & (dnl < dnl_threshold)))
    has = linear.has_dof
    comp_shape = np.repeat(linear.shape, np.diff(linear.offsets))
    dof_rows = list(zip(
        [names[code] for code in comp_shape[has].tolist()],
        linear.frequency[has].tolist(), linear.dof[has].tolist(),
    ))
    return scatter, dof_rows


def list_violations(results, cfg, mr3, sink) -> None:
    """Hand ``sink`` every MR1, then every MR2 violation record of
    ``results``, one iterable per chunk of the search (ascending ``(i, j)``,
    and ``(i, j, component)`` for MR2, within a chunk), then the MR3
    records ``mr3``.  The one code that lists every pair; it does not count
    them.  ``cfg`` is read as by :func:`analyze`."""
    cols = ResultColumns.of(results)
    for chunk in list_mr1(cols):
        sink(chunk)
    for chunk in list_mr2(cols, cfg.inputs.dnl_threshold):
        sink(chunk)
    sink(mr3)


def analyze(results, cfg) -> tuple[dict, list[tuple], list[tuple]]:
    """The analyze stage: ``(report, scatter, dof_rows)`` for ``results``.

    ``report`` is the ``mr_report.json`` payload: the MR1 and MR2 summaries,
    every MR3 violation, each shape's bandwidth estimate (in ``cfg.shapes``
    order) and the tests per scope class.  The tables are
    :func:`export_plot_data`'s.  ``cfg`` is read by attribute (a
    ``CampaignConfig``).  ``results`` are converted to columns once, and
    the MR1 and MR2 summaries are counted; :func:`list_violations` lists
    the records behind them.
    """
    results = ResultColumns.of(results)
    th = cfg.inputs.dnl_threshold
    codes = {shape: code for code, shape in enumerate(results.shapes)}
    bandwidths = {
        shape: estimate_bandwidth(
            results.take(np.flatnonzero(results.shape == codes.get(shape, -1))), th
        )
        for shape in cfg.shapes
    }
    mr3, undefined = check_mr3(bandwidths, cfg.mr3_epsilon)
    mr1 = check_mr1(results)
    mr2, skipped = check_mr2(results, th)
    scatter, dof_rows = export_plot_data(results, th)
    scope_counts = {s.value: 0 for s in ScopeClass}
    for row in scatter:
        scope_counts[row[_SCOPE_COLUMN]] += 1
    report = {
        "kind": "mr_report",
        "dnl_threshold": th,
        "mr1": mr1.as_report(),
        "mr2": {**mr2.as_report(), "skipped_components": skipped},
        "mr3": {
            "violations": mr3,
            "undefined_shapes": list(undefined),
            "epsilon": cfg.mr3_epsilon,
        },
        "bandwidth": {
            shape.value: {"value": est.value, "status": est.status.value,
                          "n_points": est.n_points}
            for shape, est in bandwidths.items()
        },
        "scope_counts": scope_counts,
    }
    return report, scatter, dof_rows
