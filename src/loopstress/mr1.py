"""MR1 over the columns of a ``ResultColumns``: :func:`check_mr1` counts
its violations through 2-D tables, and :func:`list_mr1` lists them."""

from __future__ import annotations

import numpy as np

from .mr_summary import _CHUNK_ELEMENTS, MrSummary, _leaders, _shape_groups, _summary, _top_rows
from .records import MrViolation, ResultColumns

# Largest side of one of MR1's 2-D count tables.
_TABLE_SIDE = 512


def _mr1_pairs(cols, first=None):
    """MR1 violations ``(i, j)`` as arrays, one chunk at a time: per shape,
    ascending ``(i, j)`` within a chunk.  ``first``, if given, marks the
    tests that ``i`` is limited to."""
    for idx in _shape_groups(cols.shape, np.arange(len(cols))):
        a, t, d = cols.amp_gain[idx], cols.time_gain[idx], cols.dnl[idx]
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


def _mr1_records(cols, first, second):
    """MR1 records of the pairs ``(first[n], second[n])``, one at a time."""
    for i, j, di, dj in zip(first.tolist(), second.tolist(),
                            cols.dnl[first].tolist(), cols.dnl[second].tolist()):
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
    n = len(cols)
    d, amp, speed_of = cols.dnl, cols.amp_gain, cols.time_gain
    sat = (cols.actuator_saturation_fraction > 0) | (cols.sensor_saturation_fraction > 0)
    can_j = ~np.isnan(d)
    can_i = d < np.inf
    dominating = np.zeros(n, dtype=np.int64)
    dominated = np.zeros(n, dtype=np.int64)
    largest = np.full(n, -np.inf)
    saturated = 0
    for idx in _shape_groups(cols.shape, np.arange(n)):
        idx = idx[np.argsort(speed_of[idx], kind="stable")]
        speed = speed_of[idx]
        starts = np.flatnonzero(np.r_[True, speed[1:] != speed[:-1]])
        for start, end in zip(starts, np.r_[starts[1:], idx.size]):
            firsts = idx[start:][can_i[idx[start:]]]
            same = speed_of[firsts] == speed[start]
            group = idx[start:end][can_j[idx[start:end]]]
            for part in range(0, group.size, _TABLE_SIDE):
                js = group[part:part + _TABLE_SIDE]
                counts = _dominance_table(
                    amp[js], d[js], sat[js], amp[firsts], d[firsts], sat[firsts], same,
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
    counted without listing the pairs (:func:`list_mr1` lists them)."""
    cols = ResultColumns.of(results)
    dominating, dominated, largest, saturated = _mr1_counts(cols)
    leaders = _leaders(dominating, largest - cols.dnl)
    top = _top_rows(
        (cols.dnl[j] - cols.dnl[i], i, j, np.zeros_like(i), np.zeros_like(i))
        for i, j in _mr1_pairs(cols, leaders)
    )
    return _summary(
        cols, np.bincount(cols.shape, dominating, len(cols.shapes)).astype(np.int64),
        dominating + dominated, saturated, top, lambda i, j, k, m: _mr1_records(cols, i, j),
    )


def list_mr1(cols):
    """Every MR1 record of the columns ``cols``, one iterable per chunk of
    the search, ascending ``(i, j)`` within a chunk."""
    for i, j in _mr1_pairs(cols):
        yield _mr1_records(cols, i, j)
