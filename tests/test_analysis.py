"""Metamorphic relation checkers, bandwidth estimation, scope classification."""
from __future__ import annotations

import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopstress import analysis
from loopstress.analysis import (
    DOF_HEADER,
    SCATTER_HEADER,
    BandwidthEstimate,
    BandwidthStatus,
    MrViolation,
    ScopeClass,
    _g_formatter,
    check_mr1,
    check_mr2,
    check_mr3,
    classify_scope,
    estimate_bandwidth,
    export_plot_data,
)
from loopstress.signals import ShapeKind, snap_time_gain

from conftest import make_result, violation_family


# ---------------------------------------------------------------------------
# reference oracles: the direct double loops that the numpy checkers replace
# ---------------------------------------------------------------------------


def reference_mr1(results):
    results = list(results)
    violations = []
    for i, ri in enumerate(results):
        for j, rj in enumerate(results):
            if i == j or ri.case.shape is not rj.case.shape:
                continue
            ai, ti = ri.case.amp_gain, ri.case.time_gain
            aj, tj = rj.case.amp_gain, rj.case.time_gain
            dominates = (ai > aj and ti >= tj) or (ai >= aj and ti > tj)
            if dominates and not ri.dnl > rj.dnl:
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


def reference_mr2(results, dnl_threshold, bin_tolerance=None, equality_tolerance=1e-6):
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


def reference_summary(results, relation, violations):
    """The MrSummary fields of the reference ``violations``, which are in
    ``(i, j, component)`` order: counts, per-shape counts, top tests,
    saturation, octave bands (MR2) and the top records by margin."""
    top_k = analysis.TOP_K
    mr2 = relation == "MR2"
    margins = [w[3] - w[1] if mr2 else w[1] - w[0] for w in (v.witnesses for v in violations)]
    order = sorted(
        range(len(violations)),
        key=lambda p: (math.isnan(margins[p]), 0.0 if math.isnan(margins[p]) else -margins[p], p),
    )
    shape_counts = {r.case.shape.value: 0 for r in results}
    per_test = Counter()
    saturated = 0
    bands = Counter()
    for v in violations:
        i, j = v.subjects
        shape_counts[results[i].case.shape.value] += 1
        per_test[i] += 1
        per_test[j] += 1
        saturated += any(
            r.actuator_saturation_fraction > 0 or r.sensor_saturation_fraction > 0
            for r in (results[i], results[j])
        )
        f = v.witnesses[0]
        n = math.frexp(f)[1]
        bands[None if f == 0 else (2.0 ** (n - 1), 2.0 ** n)] += 1
    return {
        "count": len(violations),
        "shape_counts": shape_counts,
        "top_tests": tuple(sorted(per_test.items(), key=lambda t: (-t[1], t[0]))[:top_k]),
        "saturated": saturated,
        "zero_hz": bands.pop(None, 0) if mr2 else None,
        "bands": tuple((lo, hi, n) for (lo, hi), n in sorted(bands.items())) if mr2 else None,
        "violations": tuple(violations[p] for p in order[:top_k]),
    }


def summary_fields(summary):
    return {name: getattr(summary, name) for name in analysis.MrSummary.__slots__}


def full_mr1(results):
    """check_mr1's summary and every record its sink received, by subjects."""
    records = []
    summary = check_mr1(results, sink=records.extend)
    return summary, tuple(sorted(records, key=lambda v: v.subjects))


def full_mr2(results, *args, **kwargs):
    """check_mr2's summary, every record its sink received (by subjects,
    stable, so components keep their order) and the skipped count."""
    records = []
    summary, skipped = check_mr2(results, *args, sink=records.extend, **kwargs)
    return summary, tuple(sorted(records, key=lambda v: v.subjects)), skipped


def assert_mr1_matches_reference(results):
    """check_mr1 against the double loop: every record, the summary, and a
    summary without a sink equal to the one with."""
    summary, records = full_mr1(results)
    expected = reference_mr1(results)
    assert records == expected
    assert summary_fields(summary) == reference_summary(results, "MR1", expected)
    assert summary_fields(check_mr1(results)) == summary_fields(summary)
    return expected


def assert_mr2_matches_reference(results, *args, **kwargs):
    """check_mr2 against the double loop, as ``assert_mr1_matches_reference``."""
    summary, records, skipped = full_mr2(results, *args, **kwargs)
    expected, expected_skipped = reference_mr2(results, *args, **kwargs)
    assert (records, skipped) == (expected, expected_skipped)
    assert summary_fields(summary) == reference_summary(results, "MR2", expected)
    plain, plain_skipped = check_mr2(results, *args, **kwargs)
    assert (summary_fields(plain), plain_skipped) == (summary_fields(summary), skipped)
    return expected, skipped


# Result sets with many ties: few amplitudes and speeds (2, 1, 0.5 Hz snap
# exactly; 3 Hz does not), component frequencies on a 0.5 Hz grid, so a
# scaled target often sits midway between two candidates.  Half the tests
# take their component frequencies from a small shared set, so tests of one
# speed often share a layout and are matched together.
_dofs = st.one_of(
    st.none(),
    st.sampled_from([0.0, -0.0, 0.2, 0.5, math.nan]),
    st.floats(-1.0, 1.0),
)


@st.composite
def _components(draw):
    if draw(st.booleans()):
        shared = draw(st.sampled_from([(1.0, 3.0), (0.5, 1.5, 2.5), (2.0, math.inf)]))
        return [(f, 1.0, draw(_dofs)) for f in shared]
    grid = st.sampled_from([0.5 * k for k in range(1, 9)] + [0.75, math.inf, math.nan])
    return draw(st.lists(st.tuples(grid, st.just(1.0), _dofs), max_size=5))


_results = st.lists(
    st.builds(
        make_result,
        shape=st.sampled_from([ShapeKind.SQUARE, ShapeKind.TRIANGLE]),
        amp=st.sampled_from([0.5, 1.0, 1.5]),
        frequency=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
        dnl=st.one_of(
            st.sampled_from([0.0, 0.05, 0.1, 0.2, math.inf, math.nan]),
            st.floats(0.0, 0.2),
        ),
        components=_components(),
        diverged=st.sampled_from([False, False, False, True]),
        periods=st.sampled_from([1, 5]),
        actuator_sat=st.sampled_from([0.0, 0.0, 0.25, math.nan]),
        sensor_sat=st.sampled_from([0.0, 0.0, 0.5]),
    ),
    min_size=2,
    max_size=14,
)


# ---------------------------------------------------------------------------
# MR1: larger-and-faster must stress strictly more
# ---------------------------------------------------------------------------


def test_mr1_flags_the_pinned_counterexample():
    # Same shape and speed, amplitude 1.5 vs 0.6, yet the larger test shows
    # *less* nonlinearity: exactly one ordered violation.
    results = [
        make_result(amp=1.5, frequency=0.1, dnl=0.01),
        make_result(amp=0.6, frequency=0.1, dnl=0.05),
    ]
    summary = check_mr1(results)
    assert len(summary) == 1
    v = summary.violations[0]
    assert v.relation == "MR1"
    assert v.subjects == (0, 1)
    assert v.witnesses == (0.01, 0.05)


def test_mr1_satisfied_when_dominance_and_dnl_agree():
    results = [
        make_result(amp=1.5, frequency=0.1, dnl=0.08),
        make_result(amp=0.6, frequency=0.1, dnl=0.05),
    ]
    assert len(check_mr1(results)) == 0
    assert full_mr1(results)[1] == ()


def test_mr1_ignores_pairs_across_shapes():
    results = [
        make_result(shape=ShapeKind.SQUARE, amp=1.5, frequency=0.1, dnl=0.01),
        make_result(shape=ShapeKind.TRIANGLE, amp=0.6, frequency=0.1, dnl=0.05),
    ]
    assert len(check_mr1(results)) == 0
    assert full_mr1(results)[1] == ()


def test_mr1_requires_strict_dominance():
    # Equal amplitude and equal speed is not a dominance relation, so equal
    # or inverted dnl values are not violations.
    results = [
        make_result(amp=1.0, frequency=0.5, dnl=0.01),
        make_result(amp=1.0, frequency=0.5, dnl=0.05),
    ]
    assert len(check_mr1(results)) == 0
    assert full_mr1(results)[1] == ()


def test_mr1_equal_dnl_under_dominance_is_a_violation():
    results = [
        make_result(amp=2.0, frequency=0.5, dnl=0.05),
        make_result(amp=1.0, frequency=0.5, dnl=0.05),
    ]
    assert len(check_mr1(results)) == 1


def _mr1_battery(inverted_pairs):
    """Five (low, high) amplitude pairs at five speeds.

    Pair k uses dnl_lo = 0.1 + 0.01 k.  A well-behaved pair answers with
    dnl_hi = dnl_lo + 0.005; an inverted pair with dnl_lo - 0.001.  Both
    keep every cross-pair dominance satisfied, so exactly the inverted
    pairs are reported.
    """
    results = []
    for k in range(5):
        freq = 1.0 + 0.1 * k
        lo = 0.1 + 0.01 * k
        hi = lo - 0.001 if k in inverted_pairs else lo + 0.005
        results.append(make_result(amp=1.0, frequency=freq, dnl=lo))
        results.append(make_result(amp=2.0, frequency=freq, dnl=hi))
    return results


@pytest.mark.parametrize("inverted", [set(), {2}, {0, 1, 2, 3, 4}])
def test_mr1_reports_exactly_the_injected_violations(inverted):
    violations = check_mr1(_mr1_battery(inverted))
    assert len(violations) == len(inverted)


def test_mr1_violation_count_is_order_independent():
    results = _mr1_battery({1, 3})
    shuffled = results[:]
    random.Random(42).shuffle(shuffled)
    (a_summary, a), (b_summary, b) = full_mr1(results), full_mr1(shuffled)
    assert len(a_summary) == len(b_summary) == len(a) == len(b) == 2
    assert sorted(v.witnesses for v in a) == sorted(v.witnesses for v in b)


# ---------------------------------------------------------------------------
# MR2: faster linear tests must be filtered more at matched components
# ---------------------------------------------------------------------------


def _mr2_pair(violating, fast_extra=(), equalities=False):
    """One same-shape pair: fast test at 2 Hz, slow test at 1 Hz.

    Component k of the fast test sits at 2(k+1) Hz and corresponds to the
    slow test's component at (k+1) Hz.  ``violating`` lists the component
    indices whose slower partner filters *less* (dof higher on the slow
    side), which falsifies the relation.
    """
    fast_comps = []
    slow_comps = []
    for k in range(5):
        fast_dof = 0.3 + 0.05 * k
        if equalities:
            slow_dof = fast_dof
        elif k in violating:
            slow_dof = fast_dof + 0.1
        else:
            slow_dof = fast_dof - 0.1
        fast_comps.append((2.0 * (k + 1), 1.0, fast_dof))
        slow_comps.append((float(k + 1), 1.0, slow_dof))
    fast_comps.extend(fast_extra)
    return [
        make_result(frequency=2.0, dnl=0.01, components=fast_comps),
        make_result(frequency=1.0, dnl=0.01, components=slow_comps),
    ]


@pytest.mark.parametrize("violating", [set(), {3}, {0, 1, 2, 3, 4}])
def test_mr2_reports_exactly_the_injected_violations(violating):
    summary, violations, skipped = full_mr2(_mr2_pair(violating), dnl_threshold=0.15)
    assert len(summary) == len(violations) == len(violating)
    assert skipped == 0
    for v in violations:
        assert v.relation == "MR2"
        assert v.subjects == (0, 1)


def test_mr2_equal_dofs_not_flagged_at_default_tolerance():
    summary, violations, _ = full_mr2(_mr2_pair(set(), equalities=True), dnl_threshold=0.15)
    assert len(summary) == 0 and violations == ()


def test_mr2_equal_dofs_flagged_when_tolerance_is_zero():
    summary, violations, _ = full_mr2(
        _mr2_pair(set(), equalities=True), dnl_threshold=0.15, equality_tolerance=0.0
    )
    assert len(summary) == len(violations) == 5


def test_mr2_counts_unmatched_components_as_skipped():
    # A fast component at 7 Hz maps to 3.5 Hz, which is half a bin away
    # from every slow component: skipped, not judged.
    results = _mr2_pair(set(), fast_extra=((7.0, 1.0, 0.4),))
    summary, violations, skipped = full_mr2(results, dnl_threshold=0.15)
    assert len(summary) == 0 and violations == ()
    assert skipped == 1


def test_mr2_ignores_nonlinear_and_diverged_results():
    results = _mr2_pair({0, 1, 2, 3, 4})
    # Pushing the fast test over the dnl threshold removes the only
    # qualifying pair.
    results[0] = make_result(
        frequency=2.0, dnl=0.5, components=[(2.0 * (k + 1), 1.0, 0.3) for k in range(5)]
    )
    summary, violations, skipped = full_mr2(results, dnl_threshold=0.15)
    assert len(summary) == 0 and violations == ()
    assert skipped == 0


def test_mr2_ignores_pairs_across_shapes():
    results = _mr2_pair({0, 1, 2, 3, 4})
    bad = results[1]
    results[1] = make_result(
        shape=ShapeKind.TRIANGLE,
        frequency=1.0,
        dnl=0.01,
        components=[(c.frequency, c.amplitude, c.dof) for c in bad.components],
    )
    summary, violations, _ = full_mr2(results, dnl_threshold=0.15)
    assert len(summary) == 0 and violations == ()


def test_mr2_wide_bin_tolerance_matches_offset_components():
    # With an explicit generous tolerance the 7 Hz component finds the
    # 3 Hz slow component (distance 0.5) instead of being skipped.
    results = _mr2_pair(set(), fast_extra=((7.0, 1.0, 0.0),))
    summary, skipped = check_mr2(results, dnl_threshold=0.15, bin_tolerance=0.6)
    assert skipped == 0
    # Partner dof 0.3 - 0.1 = 0.2 exceeds the extra component's dof 0.0.
    assert len(summary) == 1
    assert summary.violations[0].witnesses[0] == 7.0


# ---------------------------------------------------------------------------
# the numpy checkers against the reference loops
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(results=_results)
def test_mr1_matches_the_reference_loops(results):
    assert_mr1_matches_reference(results)


@settings(max_examples=200, deadline=None)
@given(
    results=_results,
    bin_tolerance=st.sampled_from([None, 0.3, math.inf]),
    equality_tolerance=st.sampled_from([1e-6, 0.0, -1.0]),
)
def test_mr2_matches_the_reference_loops(results, bin_tolerance, equality_tolerance):
    assert_mr2_matches_reference(results, 0.15, bin_tolerance, equality_tolerance)


@settings(max_examples=200, deadline=None)
@given(
    results=_results,
    bin_tolerance=st.sampled_from([None, 0.3, math.inf]),
    top_k=st.integers(1, 4),
)
def test_summaries_of_few_top_rows_and_small_chunks_match_the_reference_loops(
    results, bin_tolerance, top_k
):
    # Few top rows and tiny chunks: the top rows are merged across many
    # chunks, and most chunks hold more violations than the top keeps.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "TOP_K", top_k)
        mp.setattr(analysis, "_CHUNK_ELEMENTS", 7)
        assert_mr1_matches_reference(results)
        assert_mr2_matches_reference(results, 0.15, bin_tolerance, 0.0)


def test_mr2_equidistant_partners_pick_the_first():
    # The 1.5 Hz component of the 2 Hz test maps to 0.75 Hz, midway between
    # the slow test's 0.5 and 1.0 Hz components: the first one is the partner.
    results = [
        make_result(frequency=2.0, dnl=0.01, components=[(1.5, 1.0, 0.0)]),
        make_result(
            frequency=1.0, dnl=0.01, components=[(0.5, 1.0, 0.3), (1.0, 1.0, 0.6)]
        ),
    ]
    violations, skipped = assert_mr2_matches_reference(results, 0.15, bin_tolerance=0.3)
    assert [v.witnesses for v in violations] == [(1.5, 0.0, 0.5, 0.3)]


def test_mr2_details_keep_the_sign_of_zero_dofs_beside_0_hz():
    # Zero frequencies are +0.0 here and the fast test's dof at 0 Hz is -0.0:
    # the detail must print both zeros as they are.
    results = [
        make_result(frequency=2.0, dnl=0.01, components=[(0.0, 0.1, -0.0), (2.0, 1.0, 0.5)]),
        make_result(frequency=1.0, dnl=0.01, components=[(0.0, 0.1, 0.25), (1.0, 1.0, 0.3)]),
    ]
    violations, skipped = assert_mr2_matches_reference(results, 0.15)
    assert check_mr2(results, 0.15)[0].violations == violations
    assert check_mr2(results, 0.15)[0].zero_hz == 1
    assert [v.detail for v in violations] == [
        "dof of test 0 at 0 Hz is -0, not above dof 0.25 of slower test 1 at 0 Hz"
    ]


def test_mr2_scales_the_target_as_frequency_times_slow_over_fast():
    # (f * T_j) / T_i lands exactly on 11 Hz; f * (T_j / T_i) would land one
    # ulp short and miss the partner at zero tolerance.
    fast = snap_time_gain(3.0, 0.001)
    f = 11 * fast
    assert f * (1.0 / fast) != 11.0
    results = [
        make_result(frequency=3.0, dnl=0.01, components=[(f, 1.0, 0.1)]),
        make_result(frequency=1.0, dnl=0.01, components=[(11.0, 1.0, 0.2)]),
    ]
    violations, skipped = assert_mr2_matches_reference(results, 0.15, bin_tolerance=0.0)
    assert skipped == 0 and len(violations) == 1


def test_mr2_matches_slow_tests_by_their_own_tolerance_and_dof_mask():
    # The 1.5 Hz component of the 2 Hz test maps to 0.75 Hz.  The slow tests
    # share speed and component frequencies in two pairs, but the first pair
    # differs in run length (bin tolerance 0.1 vs 0.5 Hz) and the second in
    # which component carries a dof.
    results = [
        make_result(frequency=2.0, dnl=0.01, components=[(1.5, 1.0, 0.0)]),
        make_result(frequency=1.0, dnl=0.01, periods=5, components=[(1.0, 1.0, 0.3)]),
        make_result(frequency=1.0, dnl=0.01, periods=1, components=[(1.0, 1.0, 0.3)]),
        make_result(
            frequency=1.0, dnl=0.01, periods=1,
            components=[(0.5, 1.0, None), (1.0, 1.0, 0.6)],
        ),
        make_result(
            frequency=1.0, dnl=0.01, periods=1,
            components=[(0.5, 1.0, 0.2), (1.0, 1.0, 0.6)],
        ),
    ]
    violations, skipped = assert_mr2_matches_reference(results, 0.15)
    assert skipped == 1
    assert [(v.subjects, v.witnesses[2:]) for v in violations] == [
        ((0, 2), (1.0, 0.3)),
        ((0, 3), (1.0, 0.6)),
        ((0, 4), (0.5, 0.2)),
    ]


def test_mr1_chunks_rows_of_large_groups(monkeypatch):
    results = _mr1_battery({0, 3}) + _mr1_battery({1})
    monkeypatch.setattr(analysis, "_CHUNK_ELEMENTS", 7)
    expected = assert_mr1_matches_reference(results)
    assert len(expected) > 3


def test_mr2_chunks_pairs_of_large_groups(monkeypatch):
    # Two fast tests share a layout; all three slow tests share another.
    results = (
        _mr2_pair({1, 4})
        + _mr2_pair({0}, fast_extra=((7.0, 1.0, 0.4),))
        + _mr2_pair({2, 3})
    )
    monkeypatch.setattr(analysis, "_CHUNK_ELEMENTS", 7)
    expected = assert_mr2_matches_reference(results, 0.15)
    assert len(expected[0]) > 3 and expected[1] > 0


def test_checker_memory_does_not_grow_with_the_violation_count():
    # 42,412 MR1 and 200,928 MR2 violations; one record each would take
    # about 100 MB.  The summaries keep per-test counts and the top rows,
    # and each chunk's index arrays go when the chunk is folded in.
    results = violation_family(4)
    tracemalloc.start()
    try:
        mr1 = check_mr1(results)
        mr2, skipped = check_mr2(results, 0.15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(mr1), len(mr2), skipped) == (42_412, 200_928, 0)
    assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# bandwidth estimation
# ---------------------------------------------------------------------------


def test_bandwidth_interpolates_the_crossing():
    results = [
        make_result(dnl=0.01, components=[(0.4, 1.0, 0.3), (0.8, 0.5, 0.7)]),
    ]
    est = estimate_bandwidth(results, dnl_threshold=0.15)
    assert est.defined
    assert est.status is BandwidthStatus.OK
    assert est.value == pytest.approx(0.6)
    assert est.n_points == 2


def test_bandwidth_exact_crossing_at_first_point():
    results = [make_result(dnl=0.01, components=[(0.4, 1.0, 0.5), (0.8, 0.5, 0.9)])]
    est = estimate_bandwidth(results, dnl_threshold=0.15)
    assert est.value == pytest.approx(0.4)


def test_bandwidth_undefined_above_range():
    results = [make_result(dnl=0.01, components=[(0.4, 1.0, 0.1), (0.8, 0.5, 0.2)])]
    est = estimate_bandwidth(results, dnl_threshold=0.15)
    assert not est.defined
    assert est.status is BandwidthStatus.ABOVE_RANGE
    assert est.status.value == "undefined-above-range"
    assert est.value is None


def test_bandwidth_undefined_below_range():
    results = [make_result(dnl=0.01, components=[(0.4, 1.0, 0.8), (0.8, 0.5, 0.9)])]
    est = estimate_bandwidth(results, dnl_threshold=0.15)
    assert not est.defined
    assert est.status is BandwidthStatus.BELOW_RANGE


def test_bandwidth_needs_two_linear_components():
    with pytest.raises(ValueError):
        estimate_bandwidth([make_result(dnl=0.01, components=[(0.4, 1.0, 0.3)])], 0.15)
    with pytest.raises(ValueError):
        estimate_bandwidth([], 0.15)


def test_bandwidth_pools_only_linear_results():
    linear = make_result(dnl=0.01, components=[(0.4, 1.0, 0.3), (0.8, 0.5, 0.7)])
    stressed = make_result(dnl=0.5, components=[(0.1, 1.0, None), (0.2, 0.5, None)])
    with_stressed = estimate_bandwidth([linear, stressed], dnl_threshold=0.15)
    alone = estimate_bandwidth([linear], dnl_threshold=0.15)
    assert with_stressed == alone


def test_bandwidth_pools_across_results():
    a = make_result(dnl=0.01, components=[(0.4, 1.0, 0.3)])
    b = make_result(dnl=0.02, components=[(0.8, 1.0, 0.7)])
    est = estimate_bandwidth([a, b], dnl_threshold=0.15)
    assert est.value == pytest.approx(0.6)


# ---------------------------------------------------------------------------
# MR3: bandwidth agreement across shapes
# ---------------------------------------------------------------------------


def test_mr3_flags_the_pinned_disagreement():
    violations, undefined = check_mr3(
        {ShapeKind.SQUARE: 0.9, ShapeKind.SAWTOOTH: 0.6}, epsilon=0.18
    )
    assert undefined == ()
    assert len(violations) == 1
    v = violations[0]
    assert v.relation == "MR3"
    assert set(v.subjects) == {"square", "sawtooth"}


def test_mr3_close_estimates_pass_with_default_epsilon():
    # Default epsilon is 20% of the mean defined bandwidth (0.182 here).
    violations, undefined = check_mr3({ShapeKind.SQUARE: 0.9, ShapeKind.TRIANGLE: 0.92})
    assert violations == ()
    assert undefined == ()


def test_mr3_undefined_estimates_are_reported_not_flagged():
    bandwidths = {
        ShapeKind.SQUARE: BandwidthEstimate(0.9, BandwidthStatus.OK, 4),
        ShapeKind.SAWTOOTH: BandwidthEstimate(None, BandwidthStatus.ABOVE_RANGE, 4),
        ShapeKind.TRIANGLE: None,
    }
    violations, undefined = check_mr3(bandwidths, epsilon=0.01)
    assert violations == ()
    assert undefined == ("sawtooth", "triangle")


@pytest.mark.parametrize(
    "bandwidths, epsilon, expected",
    [
        ({"a": 1.0, "b": 1.05, "c": 0.95}, 0.5, 0),
        ({"a": 1.0, "b": 2.0}, 0.5, 1),
        ({f"s{k}": (10.0 if k == 0 else 10.4) for k in range(6)}, 0.3, 5),
    ],
)
def test_mr3_reports_exactly_the_injected_violations(bandwidths, epsilon, expected):
    violations, _ = check_mr3(bandwidths, epsilon=epsilon)
    assert len(violations) == expected


def test_mr3_all_undefined_yields_no_violations():
    violations, undefined = check_mr3({"square": None, "triangle": None})
    assert violations == ()
    assert undefined == ("square", "triangle")


# ---------------------------------------------------------------------------
# scope classification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "dnl, expected",
    [
        (0.0, ScopeClass.WITHIN),
        (0.074, ScopeClass.WITHIN),
        (0.075, ScopeClass.BOUNDARY_STRESS),
        (0.10, ScopeClass.BOUNDARY_STRESS),
        (0.15, ScopeClass.OUTSIDE),
        (0.16, ScopeClass.OUTSIDE),
        (math.inf, ScopeClass.OUTSIDE),
    ],
)
def test_classify_scope_boundaries(dnl, expected):
    result = make_result(dnl=dnl)
    assert classify_scope(result, dnl_threshold=0.15) is expected


def test_classify_scope_is_monotone_in_dnl():
    order = [ScopeClass.WITHIN, ScopeClass.BOUNDARY_STRESS, ScopeClass.OUTSIDE]
    last = 0
    for dnl in (0.0, 0.03, 0.08, 0.12, 0.15, 0.4, math.inf):
        cls = classify_scope(make_result(dnl=dnl), dnl_threshold=0.15)
        idx = order.index(cls)
        assert idx >= last
        last = idx


def test_classify_scope_rejects_bad_boundary_factor():
    with pytest.raises(ValueError):
        classify_scope(make_result(dnl=0.1), dnl_threshold=0.15, boundary_factor=0.0)
    with pytest.raises(ValueError):
        classify_scope(make_result(dnl=0.1), dnl_threshold=0.15, boundary_factor=1.0)


# ---------------------------------------------------------------------------
# plot-data export
# ---------------------------------------------------------------------------


def test_export_empty_results_gives_empty_tables():
    scatter, dof_rows = export_plot_data([], dnl_threshold=0.15)
    assert scatter == []
    assert dof_rows == []


def test_export_one_linear_test_with_three_components():
    result = make_result(
        shape=ShapeKind.TRIANGLE,
        amp=1.2,
        frequency=0.5,
        dnl=0.02,
        components=[(0.5, 1.0, 0.1), (1.5, 0.4, 0.3), (2.5, 0.2, 0.6)],
        actuator_sat=0.05,
    )
    scatter, dof_rows = export_plot_data([result], dnl_threshold=0.15)
    assert len(scatter) == 1
    assert len(dof_rows) == 3
    row = scatter[0]
    assert len(row) == len(SCATTER_HEADER)
    assert row[0] == "triangle"
    assert row[1] == pytest.approx(0.5)  # fundamental = time_gain for unit-ratio shapes
    assert row[2] == pytest.approx(1.2)
    assert row[3] == pytest.approx(0.02)
    assert row[4] == "within"
    assert row[5] == pytest.approx(0.05)
    for (shape_name, freq, dof), comp in zip(dof_rows, result.components):
        assert shape_name == "triangle"
        assert freq == comp.frequency
        assert dof == comp.dof
    assert len(DOF_HEADER) == 3


def test_export_excludes_dof_rows_of_stressed_tests():
    stressed = make_result(dnl=0.5, components=[(0.5, 1.0, None)])
    scatter, dof_rows = export_plot_data([stressed], dnl_threshold=0.15)
    assert len(scatter) == 1
    assert scatter[0][4] == "outside"
    assert dof_rows == []


def test_export_scatter_preserves_result_order():
    results = [make_result(dnl=0.01 * k, frequency=0.5 + 0.5 * k) for k in range(4)]
    scatter, _ = export_plot_data(results, dnl_threshold=0.15)
    assert [row[3] for row in scatter] == pytest.approx([0.0, 0.01, 0.02, 0.03])


@pytest.mark.parametrize(
    "values", [[0.5, 0.0], [0.5, -0.0], [0.0, -0.0, 0.5], [0.5], [math.nan, math.inf, 0.0]]
)
def test_g_formatter_keeps_the_sign_of_zero(values):
    g = _g_formatter(np.array(values))
    for _ in range(2):  # the second round reads the memo
        assert [g(x) for x in values] == [format(x, "g") for x in values]


def test_mr_violation_is_a_plain_record():
    v = MrViolation(relation="MR1", subjects=(0, 1), witnesses=(0.1, 0.2), detail="x")
    assert v.relation == "MR1"
    assert v.detail == "x"
