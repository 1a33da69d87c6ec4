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

:func:`analyze` runs all three on a campaign's results and returns the
``mr_report.json`` payload with the two plot tables.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .campaign import TestResult
from .signals import ShapeKind

__all__ = [
    "MrViolation",
    "MrSummary",
    "TOP_K",
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
    "analyze",
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

# Tests, and records, that an MR1/MR2 summary lists.
TOP_K = 20


class MrSummary:
    """Fixed-size summary of one relation's violations; ``len()`` is their count.

    * ``shape_counts``: shape name -> violations, for every shape present;
    * ``top_tests``: ``(test index, violations)`` of the ``TOP_K`` tests that
      take part in most violations, most first, ties by index;
    * ``saturated``: violations in which either test saturates (actuator or
      sensor fraction above 0);
    * ``zero_hz`` and ``bands`` (MR2 only, else ``None``): violations whose
      faster-test component lies at 0 Hz, and ``(lo, hi, count)`` per
      octave ``[lo, hi)`` Hz holding any, ascending;
    * ``violations``: the ``TOP_K`` records of largest margin (MR1:
      ``dnl_j - dnl_i``; MR2: ``dof_j - dof_i``), ties in ``(i, j, component)``
      order.
    """

    __slots__ = (
        "count", "shape_counts", "top_tests", "saturated", "zero_hz", "bands",
        "violations",
    )

    def __init__(self, count, shape_counts, top_tests, saturated, zero_hz, bands,
                 violations):
        self.count = count
        self.shape_counts = shape_counts
        self.top_tests = top_tests
        self.saturated = saturated
        self.zero_hz = zero_hz
        self.bands = bands
        self.violations = violations

    def __len__(self) -> int:
        return self.count

    def as_report(self) -> dict:
        """The summary as the plain values of an ``mr_report.json`` section."""
        body = {
            "count": self.count,
            "shape_counts": dict(self.shape_counts),
            "top_tests": [{"test": i, "violations": n} for i, n in self.top_tests],
            "saturated": self.saturated,
            "saturated_share": self.saturated / self.count if self.count else 0.0,
            "violations": list(self.violations),
        }
        if self.bands is not None:
            body["zero_hz"] = self.zero_hz
            body["bands"] = [
                {"lo_hz": lo, "hi_hz": hi, "count": n} for lo, hi, n in self.bands
            ]
        return body


class _Tally:
    """Folds chunks of one relation's violations into an :class:`MrSummary`.

    Only per-test and per-band counts and the ``TOP_K`` best rows are kept,
    so memory does not grow with the number of violations.
    """

    def __init__(self, results):
        self.per_test = np.zeros(len(results), dtype=np.int64)
        self.saturates = np.array(
            [
                r.actuator_saturation_fraction > 0 or r.sensor_saturation_fraction > 0
                for r in results
            ],
            dtype=bool,
        )
        self.shape_counts = {r.case.shape.value: 0 for r in results}
        self.saturated = 0
        self.bands: dict = {}  # frexp exponent of the frequency (None: 0 Hz) -> count
        empty = np.empty(0, dtype=np.intp)
        # Margin, i, j, component of i, matched component of j.
        self.top = (np.empty(0), empty, empty, empty, empty)

    def add(self, shape, first, second, margin, comp=None, partner=None) -> None:
        """Violations ``(first[n], second[n])`` of one shape, with margins and,
        for MR2, the component of the faster test and its partner's."""
        n = first.size
        self.shape_counts[shape.value] += n
        for side in (first, second):
            counts = np.bincount(side)
            self.per_test[:counts.size] += counts
        self.saturated += int(np.count_nonzero(self.saturates[first] | self.saturates[second]))
        rows = [margin, first, second, comp, partner]
        if n > TOP_K:
            # The chunk's best TOP_K rows.  Rows come in (i, j, component)
            # order, so of the rows tied with the k-th best the first win.
            key = -margin
            cut = np.partition(key, TOP_K - 1)[TOP_K - 1]
            better = np.flatnonzero(key < cut)
            tied = np.flatnonzero(key == cut)[:TOP_K - better.size]
            keep = np.concatenate([better, tied])
            rows = [None if col is None else col[keep] for col in rows]
        if comp is None:
            rows[3] = rows[4] = np.zeros(rows[1].size, dtype=np.intp)
        rows = [np.concatenate(pair) for pair in zip(self.top, rows)]
        margin, i, j, k = rows[:4]
        order = np.lexsort((k, j, i, -margin))[:TOP_K]
        self.top = tuple(col[order] for col in rows)

    def add_bands(self, frequencies, counts) -> None:
        """``counts[n]`` violations at the faster test's component ``frequencies[n]``."""
        exponents = np.frexp(frequencies)[1].tolist()
        for f, e, n in zip(frequencies.tolist(), exponents, counts.tolist()):
            if n:
                key = None if f == 0.0 else e
                self.bands[key] = self.bands.get(key, 0) + n

    def summary(self, records, bands: bool = False) -> MrSummary:
        """``records(i, j, k, m)`` gives the records of the top rows."""
        ranked = np.argsort(-self.per_test, kind="stable")[:TOP_K]
        top_tests = tuple(
            (i, n) for i, n in zip(ranked.tolist(), self.per_test[ranked].tolist()) if n
        )
        zero_hz = octaves = None
        if bands:
            zero_hz = self.bands.pop(None, 0)
            octaves = tuple(
                (math.ldexp(1.0, e - 1), math.ldexp(1.0, e), n)
                for e, n in sorted(self.bands.items())
            )
        return MrSummary(
            count=sum(self.shape_counts.values()),
            shape_counts=self.shape_counts,
            top_tests=top_tests,
            saturated=self.saturated,
            zero_hz=zero_hz,
            bands=octaves,
            violations=tuple(records(*self.top[1:])),
        )


def _shape_groups(results, indices) -> list[np.ndarray]:
    """``indices`` split by the shape of their result, each in ascending order."""
    groups: dict = {}
    for idx in indices:
        groups.setdefault(results[idx].case.shape, []).append(idx)
    return [np.array(g, dtype=np.intp) for g in groups.values()]


def _mr1_records(results, first, second):
    """MR1 records of the pairs ``(first[n], second[n])``, one at a time."""
    for i, j in zip(first.tolist(), second.tolist()):
        di, dj = results[i].dnl, results[j].dnl
        yield MrViolation(
            relation="MR1",
            subjects=(i, j),
            witnesses=(di, dj),
            detail=f"test {i} dominates test {j} but dnl {di:g} <= {dj:g}",
        )


def check_mr1(results, sink=None) -> MrSummary:
    """A same-shape test that is larger *and* at-least-as-fast (or vice versa)
    must show strictly higher dnl.  Each ordered pair ``(i, j)`` for which
    that fails is a violation, unless both tests diverged: their margin
    ``dnl_j - dnl_i`` is ``inf - inf``.  Returns their :class:`MrSummary`;
    ``sink``, if given, is called with every violation's record, one
    iterable per chunk of the search (ascending ``(i, j)`` within a chunk)."""
    results = list(results)
    amp = np.array([r.case.amp_gain for r in results], dtype=float)
    speed = np.array([r.case.time_gain for r in results], dtype=float)
    dnl = np.array([r.dnl for r in results], dtype=float)
    tally = _Tally(results)
    for idx in _shape_groups(results, range(len(results))):
        shape = results[idx[0]].case.shape
        a, t, d = amp[idx], speed[idx], dnl[idx]
        rows = max(1, _CHUNK_ELEMENTS // idx.size)
        for start in range(0, idx.size, rows):
            ai = a[start:start + rows, None]
            ti = t[start:start + rows, None]
            di = d[start:start + rows, None]
            # i dominates j (strictly more stressful), yet dnl_i is not above
            # dnl_j.  A diverged i (dnl_i infinite) ties only a diverged j,
            # which leaves no margin (inf - inf), so it is no violation.
            bad = ((ai > a) & (ti >= t)) | ((ai >= a) & (ti > t))
            bad &= (di <= d) & (di < np.inf)
            r, c = np.nonzero(bad)
            if not r.size:
                continue
            first, second = idx[r + start], idx[c]
            tally.add(shape, first, second, dnl[second] - dnl[first])
            if sink is not None:
                sink(_mr1_records(results, first, second))
    return tally.summary(lambda i, j, k, m: _mr1_records(results, i, j))


def _match_components(f, t_fast, freq, speed, valid, tol):
    """Partners of a faster test's components ``f`` (speed ``t_fast``) in
    slower tests with padded components ``freq``/``valid`` and speeds and
    finite bin tolerances ``speed``/``tol``.

    Each component is scaled to ``(f * speed) / t_fast``, as in MR2, and
    matched to the nearest valid slow component; of equally near ones the
    first wins.  Returns the matched column and whether it lies within the
    tolerance, both shaped (slower test, component).
    """
    with np.errstate(all="ignore"):
        target = (f * speed[:, None]) / t_fast
        dist = np.abs(freq[:, None, :] - target[:, :, None])
    dist[~valid[:, None, :] | np.isnan(dist)] = np.inf
    best = dist.argmin(axis=2)
    best_dist = np.take_along_axis(dist, best[:, :, None], axis=2)[:, :, 0]
    return best, best_dist <= tol[:, None]


def _mr2_records(results, first, second, comp, partner):
    """MR2 records: component ``comp[n]`` of test ``first[n]`` against
    component ``partner[n]`` of the slower test ``second[n]``, one at a time."""
    for i, j, k, m in zip(first.tolist(), second.tolist(), comp.tolist(), partner.tolist()):
        c = results[i].components[k]
        p = results[j].components[m]
        yield MrViolation(
            relation="MR2",
            subjects=(i, j),
            witnesses=(c.frequency, c.dof, p.frequency, p.dof),
            detail=(
                f"dof of test {i} at {c.frequency:g} Hz is "
                f"{c.dof:g}, not above dof {p.dof:g} of "
                f"slower test {j} at {p.frequency:g} Hz"
            ),
        )


def check_mr2(
    results,
    dnl_threshold: float,
    equality_tolerance: float = 1e-6,
    sink=None,
) -> tuple[MrSummary, int]:
    """Faster linear tests must be filtered strictly more, component by component.

    For each same-shape pair of linear tests (both dnl under the threshold)
    with ``T_i > T_j``, every relevant component ``f`` of the faster test is
    compared against the slower test's component at ``f * T_j / T_i``
    (matched to the nearest component within half the slower test's DFT
    bin, ``0.5 / duration``; the first of equally near components wins).
    The relation expects ``dof_i(f) > dof_j(matched)``; differences smaller
    than ``equality_tolerance`` are not flagged.  Returns the
    :class:`MrSummary` of the violations plus the number of components that
    found no partner bin; ``sink``, if given, is called with every
    violation's record, one iterable per chunk of the search (ascending
    ``(i, j, component)`` within a chunk).
    """
    results = list(results)
    linear = [
        idx
        for idx, r in enumerate(results)
        if not r.diverged and r.dnl < dnl_threshold
    ]
    min_gap = max(equality_tolerance, 0.0)
    skipped = 0
    tally = _Tally(results)
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
        speed = np.array([r.case.time_gain for r in group], dtype=float)
        tol = np.array([0.5 / r.case.duration for r in group], dtype=float)
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
                    if not f.size:
                        continue
                    first, second = idx[fast[f]], idx[js[j]]
                    comp_k, partner_k = comps[c], best[j, c]
                    tally.add(group[0].case.shape, first, second, gap[f, j, c],
                              comp_k, partner_k)
                    tally.add_bands(freq[a, comps], np.bincount(c, minlength=comps.size))
                    if sink is not None:
                        sink(_mr2_records(results, first, second, comp_k, partner_k))
    summary = tally.summary(lambda i, j, k, m: _mr2_records(results, i, j, k, m), bands=True)
    return summary, skipped


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
    points = []
    for r in results:
        if r.diverged or not r.dnl < dnl_threshold:
            continue
        for comp in r.components:
            if comp.dof is not None:
                points.append((comp.frequency, comp.dof))
    if len(points) < 2:
        return BandwidthEstimate(None, BandwidthStatus.INSUFFICIENT, 0)
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

_SCOPE_COLUMN = SCATTER_HEADER.index("scope")


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


def analyze(results, cfg, sink=None) -> tuple[dict, list[tuple], list[tuple]]:
    """The analyze stage: ``(report, scatter, dof_rows)`` for ``results``.

    ``report`` is the ``mr_report.json`` payload: the MR1 and MR2 summaries,
    every MR3 violation, each shape's bandwidth estimate (in ``cfg.shapes``
    order) and the tests per scope class.  The tables are
    :func:`export_plot_data`'s.  ``cfg`` is read by attribute (a
    ``CampaignConfig``).  ``sink``, if given, receives every violation's
    record: MR1, then MR2, chunk by chunk, then MR3.
    """
    results = list(results)
    th = cfg.inputs.dnl_threshold
    bandwidths = {
        shape: estimate_bandwidth([r for r in results if r.case.shape is shape], th)
        for shape in cfg.shapes
    }
    mr3, undefined = check_mr3(bandwidths, cfg.mr3_epsilon)
    mr1 = check_mr1(results, sink)
    mr2, skipped = check_mr2(results, th, cfg.mr2_equality_tolerance, sink)
    if sink is not None:
        sink(mr3)
    scatter, dof_rows = export_plot_data(results, th, cfg.boundary_factor)
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
