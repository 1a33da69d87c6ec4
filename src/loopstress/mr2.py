"""MR2 over the columns of a ``ResultColumns``: :func:`check_mr2` counts
its violations through sorted dof ranks, and :func:`list_mr2` lists them."""

from __future__ import annotations

import numpy as np

from .mr_summary import _CHUNK_ELEMENTS, MrSummary, _leaders, _shape_groups, _summary, _top_rows
from .records import MrViolation, ResultColumns

# MR2 flags a partner dof at least this far above the faster test's.
MR2_TOLERANCE = 1e-6


def _sorted(values) -> np.ndarray:
    """``values`` in ascending order.  The checkers sort only through the
    stable argsort, whose code ``np.lexsort`` shares: each other sort
    kernel of numpy adds a few hundred kB of code to the stage's resident
    memory at its first call."""
    return values[np.argsort(values, kind="stable")]


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


def _linear_groups(cols, dnl_threshold) -> list:
    """Per shape of the linear tests (not diverged, dnl under the
    threshold), the arrays that MR2 matches on: ``(idx, freq, dof, valid,
    speed, tol, layout, first_of)``.

    Components are padded to the shape's widest test; ``valid`` marks those
    with a dof.  ``tol`` is half a DFT bin, ``0.5 / duration``.  Tests with
    equal speed, tolerance, component frequencies and dof mask share a
    ``layout`` (``first_of[layout]`` is its first test) and pick the same
    partners, so matching runs per pair of layouts.
    """
    groups = []
    linear = np.flatnonzero(~cols.diverged & (cols.dnl < dnl_threshold))
    for idx in _shape_groups(cols.shape, linear):
        group = cols.take(idx)
        counts = np.diff(group.offsets)
        width = counts.max()
        if width == 0:
            continue
        row = np.repeat(np.arange(idx.size), counts)
        at = (row, np.arange(row.size) - group.offsets[row])
        freq = np.zeros((idx.size, width))
        dof = np.zeros((idx.size, width))
        valid = np.zeros((idx.size, width), dtype=bool)
        freq[at], dof[at], valid[at] = group.frequency, group.dof, group.has_dof
        speed, dt = group.time_gain, group.sample_interval
        # TestCase.duration: periods * samples per period * sample interval.
        tol = 0.5 / (group.periods * np.round(1.0 / (speed * dt)) * dt)
        layouts: dict = {}  # key -> (layout, its first test)
        layout = np.array([
            layouts.setdefault(key.tobytes(), (len(layouts), k))[0]
            for k, key in enumerate(np.column_stack([speed, tol, freq, valid]))
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


def _mr2_records(cols, first, second, comp, partner):
    """MR2 records: component ``comp[n]`` of test ``first[n]`` against
    component ``partner[n]`` of the slower test ``second[n]``, one at a time."""
    c = cols.offsets[first] + comp
    p = cols.offsets[second] + partner
    for i, j, fc, dc, fp, dp in zip(
        first.tolist(), second.tolist(), cols.frequency[c].tolist(), cols.dof[c].tolist(),
        cols.frequency[p].tolist(), cols.dof[p].tolist(),
    ):
        yield MrViolation(
            relation="MR2",
            subjects=(i, j),
            witnesses=(fc, dc, fp, dp),
            detail=(
                f"dof of test {i} at {fc:g} Hz is {dc:g}, not above dof {dp:g} of "
                f"slower test {j} at {fp:g} Hz"
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
    :func:`list_mr2` lists the pairs.
    """
    cols = ResultColumns.of(results)
    groups = _linear_groups(cols, dnl_threshold)
    ranks = _dof_ranks(np.concatenate([np.empty(0), *(g[2][g[3]] for g in groups)]))
    n = len(cols)
    sat = (cols.actuator_saturation_fraction > 0) | (cols.sensor_saturation_fraction > 0)
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
        fast_sat = sat[idx[rows]][:, None]
        slow_sat = sat[idx[slower]][:, None]
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
        lambda i, j, k, m: _mr2_records(cols, i, j, k, m), bands,
    )
    return summary, skipped


def list_mr2(cols, dnl_threshold: float):
    """Every MR2 record of the columns ``cols``, one iterable per chunk of
    the search, ascending ``(i, j, component)`` within a chunk."""
    for i, j, k, m, _ in _mr2_pairs(_linear_groups(cols, dnl_threshold)):
        yield _mr2_records(cols, i, j, k, m)
