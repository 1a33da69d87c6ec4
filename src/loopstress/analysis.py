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

The MR1 and MR2 summaries are counted over per-test columns, not built
from the violating pairs, so their cost does not grow with the number of
violations; pairs are listed only for the few tests that can hold a top
record.  :func:`list_violations` (``--full-violations``) is the one code
that lists every pair, and it hands them to a sink.  Since the counts come
first, the CLI prints the record count and an estimated file size before
listing, and exits 3 without writing when the estimate exceeds the free
space of the output's file system.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np

from .records import MrViolation, TestResult
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


# Largest number of elements in one pairwise temporary of a violation
# listing, and largest side of one of MR1's 2-D count tables.
_CHUNK_ELEMENTS = 1 << 20
_TABLE_SIDE = 512

# Tests, and records, that an MR1/MR2 summary lists.
TOP_K = 20

# MR2 flags a partner dof at least this far above the faster test's.
MR2_TOLERANCE = 1e-6

# A test is within scope below this share of the dnl threshold.
BOUNDARY_FACTOR = 0.5


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


class _Columns(NamedTuple):
    """Per-test columns of a result list: the shape as a code (``shapes[code]``
    is its name, in order of first appearance), amplitude, speed, dnl, and
    whether the test diverged or saturates (actuator or sensor fraction
    above 0)."""

    shape: np.ndarray
    shapes: tuple
    amp: np.ndarray
    speed: np.ndarray
    dnl: np.ndarray
    diverged: np.ndarray
    saturated: np.ndarray


def _columns(results) -> _Columns:
    codes: dict = {}
    cases = [r.case for r in results]

    def column(values, dtype):
        return np.fromiter(values, dtype=dtype, count=len(cases))

    shape = column((codes.setdefault(c.shape, len(codes)) for c in cases), np.intp)
    return _Columns(
        shape, tuple(s.value for s in codes),
        column((c.amp_gain for c in cases), float),
        column((c.time_gain for c in cases), float),
        column((r.dnl for r in results), float),
        column((r.diverged for r in results), bool),
        column((r.actuator_saturation_fraction > 0 or r.sensor_saturation_fraction > 0
                for r in results), bool),
    )


def _shape_groups(shape, indices) -> list[np.ndarray]:
    """``indices`` split by their ``shape`` code, in order of first
    appearance, each in ascending order."""
    codes = shape[indices]
    return [indices[codes == code] for code in dict.fromkeys(codes.tolist())]


def _sorted(values) -> np.ndarray:
    """``values`` in ascending order.  The checkers sort only through the
    stable argsort, whose code ``np.lexsort`` shares: each other sort
    kernel of numpy adds a few hundred kB of code to the stage's resident
    memory at its first call."""
    return values[np.argsort(values, kind="stable")]


def _summary(cols, per_shape, per_test, saturated, top, records, bands=None) -> MrSummary:
    """The :class:`MrSummary` of counted violations: ``per_shape`` and
    ``per_test`` counts, ``top`` rows ``(margin, i, j, k, m)`` whose records
    ``records(i, j, k, m)`` gives, and, for MR2, octave ``bands`` (frexp
    exponent, or ``None`` for 0 Hz, -> count)."""
    ranked = np.argsort(-per_test, kind="stable")[:TOP_K]
    zero_hz = octaves = None
    if bands is not None:
        zero_hz = bands.pop(None, 0)
        octaves = tuple(
            (math.ldexp(1.0, e - 1), math.ldexp(1.0, e), n) for e, n in sorted(bands.items())
        )
    return MrSummary(
        count=int(per_shape.sum()),
        shape_counts=dict(zip(cols.shapes, per_shape.tolist())),
        top_tests=tuple(
            (i, n) for i, n in zip(ranked.tolist(), per_test[ranked].tolist()) if n
        ),
        saturated=int(saturated),
        zero_hz=zero_hz,
        bands=octaves,
        violations=tuple(records(*top[1:])),
    )


def _leaders(count, margin) -> np.ndarray:
    """Marks the ``TOP_K`` tests of largest ``margin`` among those with a
    ``count``, ties by index.  A record's margin is at most its first test's
    largest margin, so the top records are among these tests' records: any
    other test's record has ``TOP_K`` records of these tests at least as
    good."""
    tests = np.flatnonzero(count)
    marked = np.zeros(count.size, dtype=bool)
    marked[tests[np.lexsort((tests, -margin[tests]))[:TOP_K]]] = True
    return marked


def _top_rows(chunks):
    """The ``TOP_K`` best rows ``(margin, i, j, k, m)`` of ``chunks`` of rows,
    largest margin first, ties in ``(i, j, k)`` order; within a chunk rows
    come in that order, so a stable sort by margin keeps it."""
    empty = np.empty(0, dtype=np.intp)
    top = (np.empty(0), empty, empty, empty, empty)
    for rows in chunks:
        keep = np.argsort(-rows[0], kind="stable")[:TOP_K]
        rows = [np.concatenate([old, col[keep]]) for old, col in zip(top, rows)]
        margin, i, j, k = rows[:4]
        order = np.lexsort((k, j, i, -margin))[:TOP_K]
        top = tuple(col[order] for col in rows)
    return top


# -- MR1 --------------------------------------------------------------------

def _mr1_pairs(cols, first=None):
    """MR1 violations ``(i, j)`` as arrays, one chunk at a time: per shape,
    ascending ``(i, j)`` within a chunk.  ``first``, if given, marks the
    tests that ``i`` is limited to."""
    for idx in _shape_groups(cols.shape, np.arange(cols.shape.size)):
        a, t, d = cols.amp[idx], cols.speed[idx], cols.dnl[idx]
        pos = np.arange(idx.size) if first is None else np.flatnonzero(first[idx])
        rows = max(1, _CHUNK_ELEMENTS // idx.size)
        for start in range(0, pos.size, rows):
            p = pos[start:start + rows]
            ai, ti, di = a[p, None], t[p, None], d[p, None]
            # i dominates j (strictly more stressful), yet dnl_i is not above
            # dnl_j.  A diverged i (dnl_i infinite) ties only a diverged j,
            # which leaves no margin (inf - inf), so it is no violation.
            bad = ((ai > a) & (ti >= t)) | ((ai >= a) & (ti > t))
            bad &= (di <= d) & (di < np.inf)
            r, c = np.nonzero(bad)
            if r.size:
                yield idx[p[r]], idx[c]


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


def _mr1_counts(cols):
    """MR1 counted, not listed: per test, the violations in which it
    dominates and those in which it is dominated, the largest dnl among the
    tests it violates against (-inf if none), and the violations with a
    saturated test.

    Per shape and speed group, the group's tests ``j`` are counted for every
    test ``i`` of that speed or faster, through a 2-D table over the
    group's amplitude and dnl orders: ``i`` dominates ``j`` if ``amp_j <=
    amp_i`` (``<`` at equal speed), and violates if ``dnl_j >= dnl_i``.
    """
    n = cols.dnl.size
    d = cols.dnl
    can_j = ~np.isnan(d)
    can_i = d < np.inf
    dominating = np.zeros(n, dtype=np.int64)
    dominated = np.zeros(n, dtype=np.int64)
    largest = np.full(n, -np.inf)
    saturated = 0
    for idx in _shape_groups(cols.shape, np.arange(n)):
        idx = idx[np.argsort(cols.speed[idx], kind="stable")]
        speed = cols.speed[idx]
        starts = np.flatnonzero(np.r_[True, speed[1:] != speed[:-1]])
        for start, end in zip(starts, np.r_[starts[1:], idx.size]):
            firsts = idx[start:][can_i[idx[start:]]]
            same = cols.speed[firsts] == speed[start]
            group = idx[start:end][can_j[idx[start:end]]]
            for part in range(0, group.size, _TABLE_SIDE):
                js = group[part:part + _TABLE_SIDE]
                counts = _dominance_table(
                    cols.amp[js], d[js], cols.saturated[js],
                    cols.amp[firsts], d[firsts], cols.saturated[firsts], same,
                )
                dominating[firsts] += counts[0]
                dominated[js] += counts[1]
                largest[firsts] = np.maximum(largest[firsts], counts[2])
                saturated += counts[3]
    return dominating, dominated, largest, saturated


def _dominance_table(amp_j, dnl_j, sat_j, amp_i, dnl_i, sat_i, same):
    """Counts of the pairs ``(i, j)`` with ``amp_j <= amp_i`` (``<`` where
    ``same``) and ``dnl_j >= dnl_i``: per ``i``, per ``j``, the largest
    ``dnl_j`` per ``i`` (-inf if none) and the pairs with a saturated test.

    ``j`` takes its rank ``ra`` in ascending amplitude order and ``rd`` in
    descending dnl order; ``i`` the number ``ka`` of ``j`` below its
    amplitude and ``kd`` of ``j`` at or above its dnl.  A pair counts where
    ``ra < ka`` and ``rd < kd``, so prefix sums over the ``(ra, rd)`` grid
    give each ``i``'s count, and over the reversed ``(ka, kd)`` grid each
    ``j``'s.
    """
    m, side = amp_j.size, amp_j.size + 1
    by_amp = np.argsort(amp_j, kind="stable")
    by_dnl = np.argsort(-dnl_j, kind="stable")
    ra = np.empty(m, dtype=np.intp)
    ra[by_amp] = np.arange(m)
    rd = np.empty(m, dtype=np.intp)
    rd[by_dnl] = np.arange(m)
    ka = np.searchsorted(amp_j[by_amp], amp_i, "right")
    ka[same] = np.searchsorted(amp_j[by_amp], amp_i[same], "left")
    kd = np.searchsorted(-dnl_j[by_dnl], -dnl_i, "right")
    # grid[ka, kd]: the j with ra < ka and rd < kd; the second layer counts
    # only the saturated ones.
    grid = np.zeros((2, side, side), dtype=np.int64)
    grid[0, ra + 1, rd + 1] = 1
    grid[1, ra + 1, rd + 1] = sat_j
    grid = grid.cumsum(axis=1).cumsum(axis=2)
    per_i = grid[0, ka, kd]
    with_sat = int(per_i[sat_i].sum() + grid[1, ka, kd][~sat_i].sum())
    # The largest dnl_j per i: its j of least rd, where its row of the grid
    # first turns positive.  Rows hold at most m, so offsets of ``side`` per
    # row sort the whole grid for one search.
    rows = (np.arange(side)[:, None] * side + grid[0]).ravel()
    least = np.searchsorted(rows, ka * side + 1) - ka * side - 1
    largest = np.where(per_i > 0, dnl_j[by_dnl][np.minimum(least, m - 1)], -np.inf)
    # Per j: the i with ka > ra and kd > rd, through the grid reversed.
    asks = np.bincount((m - ka) * side + m - kd, minlength=side * side)
    asks = asks.reshape(side, side).cumsum(axis=0).cumsum(axis=1)
    per_j = asks[m - 1 - ra, m - 1 - rd]
    return per_i, per_j, largest, with_sat


def check_mr1(results) -> MrSummary:
    """A same-shape test that is larger *and* at-least-as-fast (or vice versa)
    must show strictly higher dnl.  Each ordered pair ``(i, j)`` for which
    that fails is a violation, unless both tests diverged: their margin
    ``dnl_j - dnl_i`` is ``inf - inf``.  Returns their :class:`MrSummary`,
    counted without listing the pairs (:func:`list_violations` lists them)."""
    results = list(results)
    cols = _columns(results)
    dominating, dominated, largest, saturated = _mr1_counts(cols)
    leaders = _leaders(dominating, largest - cols.dnl)
    top = _top_rows(
        (cols.dnl[j] - cols.dnl[i], i, j, np.zeros_like(i), np.zeros_like(i))
        for i, j in _mr1_pairs(cols, leaders)
    )
    return _summary(
        cols, np.bincount(cols.shape, dominating, len(cols.shapes)).astype(np.int64),
        dominating + dominated, saturated, top,
        lambda i, j, k, m: _mr1_records(results, i, j),
    )


# -- MR2 --------------------------------------------------------------------

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


def _linear_groups(results, cols, dnl_threshold) -> list:
    """Per shape of the linear tests (not diverged, dnl under the
    threshold), the arrays that MR2 matches on: ``(idx, freq, dof, valid,
    speed, tol, layout, first_of)``.

    Components are padded to the shape's widest test; ``valid`` marks those
    with a dof.  Tests with equal speed, tolerance, component frequencies
    and dof mask share a ``layout`` (``first_of[layout]`` is its first
    test) and pick the same partners, so matching runs per pair of layouts.
    """
    groups = []
    linear = np.flatnonzero(~cols.diverged & (cols.dnl < dnl_threshold))
    for idx in _shape_groups(cols.shape, linear):
        group = [results[k] for k in idx]
        width = max(len(r.components) for r in group)
        if width == 0:
            continue
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
        layouts: dict = {}  # key -> (layout, its first test)
        layout = np.array([
            layouts.setdefault(row.tobytes(), (len(layouts), k))[0]
            for k, row in enumerate(np.column_stack([speed, tol, freq, valid]))
        ])
        first_of = np.array([k for _, k in layouts.values()])
        groups.append((idx, freq, dof, valid, speed, tol, layout, first_of))
    return groups


def _mr2_layouts(groups, fast=None):
    """Per fast layout: ``(idx, freq, dof, rows, comps, slower, best, hit)``:
    the layout's tests ``rows`` (positions in ``idx``), its components with
    a dof ``comps``, the slower tests, and each one's partner column of each
    component and whether it lies within the tolerance, shaped (slower
    test, component).  ``fast``, if given, marks the tests that the rows are
    limited to."""
    for idx, freq, dof, valid, speed, tol, layout, first_of in groups:
        for lay, a in enumerate(first_of):
            comps = np.flatnonzero(valid[a])
            slower = np.flatnonzero(speed[a] > speed)
            rows = np.flatnonzero(layout == lay)
            if fast is not None:
                rows = rows[fast[idx[rows]]]
            if comps.size == 0 or slower.size == 0 or rows.size == 0:
                continue
            # Match once per slower layout, through its first test b.
            b = first_of[speed[first_of] < speed[a]]
            kind = np.zeros(first_of.size, dtype=np.intp)
            kind[layout[b]] = np.arange(b.size)
            best = np.empty((b.size, comps.size), dtype=np.intp)
            hit = np.empty((b.size, comps.size), dtype=bool)
            step = max(1, _CHUNK_ELEMENTS // (comps.size * freq.shape[1]))
            for s in range(0, b.size, step):
                bs = b[s:s + step]
                best[s:s + step], hit[s:s + step] = _match_components(
                    freq[a, comps], speed[a], freq[bs], speed[bs], valid[bs], tol[bs]
                )
            of = kind[layout[slower]]
            yield idx, freq, dof, rows, comps, slower, best[of], hit[of]


def _mr2_pairs(groups, fast=None):
    """MR2 violations ``(i, j, k, m, gap)`` as arrays (component ``k`` of the
    faster test ``i`` against component ``m`` of ``j``), one chunk at a time:
    ascending ``(i, j, k)`` within a chunk.  ``fast``, if given, marks the
    tests that ``i`` is limited to."""
    for idx, freq, dof, rows, comps, slower, best, hit in _mr2_layouts(groups, fast):
        step = max(1, _CHUNK_ELEMENTS // (comps.size * freq.shape[1]))
        for start in range(0, slower.size, step):
            js = slower[start:start + step]
            partner, matched = best[start:start + step], hit[start:start + step]
            partner_dof = dof[js[:, None], partner]
            row_step = max(1, _CHUNK_ELEMENTS // matched.size)
            for row_start in range(0, rows.size, row_step):
                f_rows = rows[row_start:row_start + row_step]
                with np.errstate(all="ignore"):
                    gap = partner_dof - dof[f_rows[:, None], comps][:, None, :]
                f, j, c = np.nonzero((gap >= MR2_TOLERANCE) & matched)
                if f.size:
                    yield idx[f_rows[f]], idx[js[j]], comps[c], partner[j, c], gap[f, j, c]


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


def _least(n, holds):
    """Per ``r`` in ``range(n)``, the least ``s`` in ``[0, n]`` for which
    ``holds(s, r)``, a test that is false, then true, as ``s`` grows."""
    r = np.arange(n)
    lo, hi = np.zeros(n, dtype=np.intp), np.full(n, n, dtype=np.intp)
    while True:
        open_ = lo < hi
        if not open_.any():
            return lo
        mid = (lo + hi) // 2
        yes = holds(np.minimum(mid, n - 1), r)
        hi = np.where(open_ & yes, mid, hi)
        lo = np.where(open_ & ~yes, mid + 1, lo)


def _dof_ranks(dofs):
    """The distinct non-NaN ``dofs``, ascending, and per rank ``r``: the
    least partner rank that violates against a faster test's dof of rank
    ``r``, and the largest faster-test rank that a partner of rank ``r``
    violates against, or -1.

    A partner dof ``y`` violates against a faster test's ``x`` if ``y - x >=
    MR2_TOLERANCE``.  Rounded subtraction is monotone in each argument, so
    for each ``x`` those ``y`` are the dofs from some rank up, and a
    bisection over the ranks finds it."""
    values = _sorted(dofs[~np.isnan(dofs)])
    if values.size:
        values = values[np.r_[True, values[1:] != values[:-1]]]
    with np.errstate(invalid="ignore"):
        lowest = _least(values.size, lambda s, r: values[s] - values[r] >= MR2_TOLERANCE)
        highest = _least(values.size, lambda s, r: ~(values[r] - values[s] >= MR2_TOLERANCE)) - 1
    return values, lowest, highest


def _count_pairs(ranks, x, y, has_x, has_y):
    """The pairs of a faster test's dof ``x[f, c]`` and a partner dof
    ``y[s, c]`` of the same column that violate, of those ``has_x`` and
    ``has_y`` keep: counted per ``(f, c)`` and per ``(s, c)``.  ``ranks``
    is :func:`_dof_ranks`'s.

    Sorted keys ``column * span + rank`` hold each column's ranks together,
    so one search per entry counts within its own column."""
    values, lowest, highest = ranks
    span = values.size + 1
    base = np.arange(x.shape[1]) * span
    rank_x = np.minimum(np.searchsorted(values, x), values.size - 1)
    rank_y = np.minimum(np.searchsorted(values, y), values.size - 1)
    keys_y = _sorted((base + rank_y)[has_y])
    per_x = np.searchsorted(keys_y, base + span) - np.searchsorted(keys_y, base + lowest[rank_x])
    keys_x = _sorted((base + rank_x)[has_x])
    per_y = (np.searchsorted(keys_x, base + highest[rank_y], "right")
             - np.searchsorted(keys_x, base))
    return np.where(has_x, per_x, 0), np.where(has_y, per_y, 0)


def check_mr2(results, dnl_threshold: float) -> tuple[MrSummary, int]:
    """Faster linear tests must be filtered strictly more, component by component.

    For each same-shape pair of linear tests (both dnl under the threshold)
    with ``T_i > T_j``, every relevant component ``f`` of the faster test is
    compared against the slower test's component at ``f * T_j / T_i``
    (matched to the nearest component within half the slower test's DFT
    bin, ``0.5 / duration``; the first of equally near components wins).
    The relation expects ``dof_i(f) > dof_j(matched)``; a violation is a
    partner dof at least ``MR2_TOLERANCE`` above the faster test's.
    Returns the :class:`MrSummary` of the violations, counted per fast
    layout and component without listing the pairs (:func:`_count_pairs`),
    plus the number of components that found no partner bin.
    :func:`list_violations` lists the pairs.
    """
    results = list(results)
    cols = _columns(results)
    groups = _linear_groups(results, cols, dnl_threshold)
    ranks = _dof_ranks(np.concatenate([np.empty(0), *(g[2][g[3]] for g in groups)]))
    n = cols.dnl.size
    per_shape = np.zeros(len(cols.shapes), dtype=np.int64)
    as_fast = np.zeros(n, dtype=np.int64)
    as_slow = np.zeros(n, dtype=np.int64)
    largest = np.full(n, -np.inf)  # per faster test, its largest margin
    saturated = skipped = 0
    bands: dict = {}  # frexp exponent of the frequency (None: 0 Hz) -> count
    for idx, freq, dof, rows, comps, slower, best, hit in _mr2_layouts(groups):
        skipped += rows.size * (hit.size - int(np.count_nonzero(hit)))
        x = dof[rows[:, None], comps]
        y = dof[slower[:, None], best]
        has_x, has_y = ~np.isnan(x), hit & ~np.isnan(y)
        if not (has_x.any() and has_y.any()):
            continue
        count, count_y = _count_pairs(ranks, x, y, has_x, has_y)
        fast_sat = cols.saturated[idx[rows]][:, None]
        slow_sat = cols.saturated[idx[slower]][:, None]
        unsaturated = _count_pairs(ranks, x, y, has_x & ~fast_sat, has_y & ~slow_sat)[0]
        total = int(count.sum())
        per_shape[cols.shape[idx[rows[0]]]] += total
        saturated += total - int(unsaturated.sum())
        as_fast[idx[rows]] += count.sum(axis=1)
        as_slow[idx[slower]] += count_y.sum(axis=1)
        with np.errstate(invalid="ignore"):
            top_y = np.where(has_y, y, -np.inf).max(axis=0)
            largest[idx[rows]] = np.where(count > 0, top_y - x, -np.inf).max(axis=1)
        frequencies = freq[rows[0], comps]
        exponents = np.frexp(frequencies)[1].tolist()
        for f, e, k in zip(frequencies.tolist(), exponents, count.sum(axis=0).tolist()):
            if k:
                key = None if f == 0.0 else e
                bands[key] = bands.get(key, 0) + k
    leaders = _leaders(as_fast, largest)
    top = _top_rows((gap, i, j, k, m) for i, j, k, m, gap in _mr2_pairs(groups, leaders))
    summary = _summary(
        cols, per_shape, as_fast + as_slow, saturated, top,
        lambda i, j, k, m: _mr2_records(results, i, j, k, m), bands,
    )
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
    scope class and instrumentation summaries.  Dof table: one row per
    relevant component of each linear test.
    """
    scatter = []
    dof_rows = []
    for r in results:
        shape = r.case.shape
        scope = classify_scope(r, dnl_threshold)
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


def list_violations(results, cfg, mr3, sink) -> None:
    """Hand ``sink`` every MR1, then every MR2 violation record of
    ``results``, one iterable per chunk of the search (ascending ``(i, j)``,
    and ``(i, j, component)`` for MR2, within a chunk), then the MR3
    records ``mr3``.  The one code that lists every pair; it does not count
    them.  ``cfg`` is read as by :func:`analyze`."""
    results = list(results)
    cols = _columns(results)
    for i, j in _mr1_pairs(cols):
        sink(_mr1_records(results, i, j))
    groups = _linear_groups(results, cols, cfg.inputs.dnl_threshold)
    for i, j, k, m, _ in _mr2_pairs(groups):
        sink(_mr2_records(results, i, j, k, m))
    sink(mr3)


def analyze(results, cfg) -> tuple[dict, list[tuple], list[tuple]]:
    """The analyze stage: ``(report, scatter, dof_rows)`` for ``results``.

    ``report`` is the ``mr_report.json`` payload: the MR1 and MR2 summaries,
    every MR3 violation, each shape's bandwidth estimate (in ``cfg.shapes``
    order) and the tests per scope class.  The tables are
    :func:`export_plot_data`'s.  ``cfg`` is read by attribute (a
    ``CampaignConfig``).  The MR1 and MR2 summaries are counted;
    :func:`list_violations` lists the records behind them.
    """
    results = list(results)
    th = cfg.inputs.dnl_threshold
    bandwidths = {
        shape: estimate_bandwidth([r for r in results if r.case.shape is shape], th)
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
