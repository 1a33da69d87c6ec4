"""What MR1's and MR2's checkers share: the fixed-size :class:`MrSummary`
of a relation's violations, ``TOP_K``, and the helpers that pick its top
tests and records."""

from __future__ import annotations

import math

import numpy as np

# Largest number of elements in one pairwise temporary of a violation
# listing.
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


def _shape_groups(shape, indices) -> list[np.ndarray]:
    """``indices`` split by their ``shape`` code, in order of first
    appearance, each in ascending order."""
    codes = shape[indices]
    return [indices[codes == code] for code in dict.fromkeys(codes.tolist())]


def _summary(cols, per_shape, per_test, saturated, top, records, bands=None) -> MrSummary:
    """The :class:`MrSummary` of counted violations of the results ``cols``:
    ``per_shape`` and ``per_test`` counts, ``top`` rows ``(margin, i, j, k,
    m)`` whose records ``records(i, j, k, m)`` gives, and, for MR2, octave
    ``bands`` (frexp exponent, or ``None`` for 0 Hz, -> count)."""
    ranked = np.argsort(-per_test, kind="stable")[:TOP_K]
    zero_hz = octaves = None
    if bands is not None:
        zero_hz = bands.pop(None, 0)
        octaves = tuple(
            (math.ldexp(1.0, e - 1), math.ldexp(1.0, e), n) for e, n in sorted(bands.items())
        )
    return MrSummary(
        count=int(per_shape.sum()),
        shape_counts=dict(zip((s.value for s in cols.shapes), per_shape.tolist())),
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
