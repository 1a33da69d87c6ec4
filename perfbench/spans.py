"""Span arithmetic for the traced run.

A span is a sequence ``(name, start, end, parent, ...)``: ``parent`` is the
index of the span that was open when this one started, or ``-1`` for the
root; further items are ignored here.  The traced run records one root
span around the whole command and one span per call into a wrapped
function; layers are the part of the name before the first dot
(``plants.sim`` belongs to ``plants``).
"""

from __future__ import annotations


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Per span, its duration minus the part its direct children cover.

    Children are clipped to their parent's interval, so a child that
    outlives its parent is not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for idx, span in enumerate(spans):
        start, end = span[1], span[2]
        kids = [
            (max(s, start), min(e, end))
            for s, e in children.get(idx, ())
            if min(e, end) > max(s, start)
        ]
        out.append((end - start) - covered(kids))
    return out


def layer_self_times(spans, other: str = "other") -> dict[str, float]:
    """Self time summed per layer; the root spans' self time is ``other``.

    Over a properly nested trace the values sum to the root span's duration.
    """
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        key = other if span[3] < 0 else span[0].split(".", 1)[0]
        totals[key] = totals.get(key, 0.0) + own
    return totals


def ancestors(spans, idx: int):
    """Indices of the spans enclosing span ``idx``, innermost first."""
    parent = spans[idx][3]
    while parent >= 0:
        yield parent
        parent = spans[parent][3]
