"""Span arithmetic of the traced run.

    python3 -m pytest perfbench/test_spans.py
"""

import math

import pytest

from spans import ancestors, covered, layer_self_times, self_times

# run [0, 10]
#   campaign.run [1, 8]
#     plants.sim [2, 4]
#       spectral.dft [3, 3.5]
#     spectral.dnl [5, 7]
#       spectral.dft [5, 6]
#   persist.save [8.5, 9.5]
NESTED = [
    ("run", 0.0, 10.0, -1),
    ("campaign.run", 1.0, 8.0, 0),
    ("plants.sim", 2.0, 4.0, 1),
    ("spectral.dft", 3.0, 3.5, 2),
    ("spectral.dnl", 5.0, 7.0, 1),
    ("spectral.dft", 5.0, 6.0, 4),
    ("persist.save", 8.5, 9.5, 0),
]


def test_covered_merges_overlaps_and_gaps():
    assert covered([]) == 0.0
    assert covered([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert covered([(0.0, 2.0), (1.0, 3.0), (2.5, 2.7)]) == 3.0
    assert covered([(4.0, 5.0), (0.0, 1.0), (0.5, 4.5)]) == 5.0


def test_nested_self_times_subtract_direct_children_only():
    assert self_times(NESTED) == pytest.approx([2.0, 3.0, 1.5, 0.5, 1.0, 1.0, 1.0])


def test_layer_self_times_plus_other_sum_to_the_root_duration():
    layers = layer_self_times(NESTED)
    assert layers == pytest.approx(
        {"other": 2.0, "campaign": 3.0, "plants": 1.5, "spectral": 2.5, "persist": 1.0}
    )
    assert math.fsum(layers.values()) == pytest.approx(10.0)


def test_child_outliving_its_parent_is_clipped():
    spans = [("run", 0.0, 4.0, -1), ("plants.sim", 1.0, 5.0, 0)]
    assert self_times(spans) == pytest.approx([1.0, 4.0])


def test_ancestors_walk_to_the_root():
    assert list(ancestors(NESTED, 5)) == [4, 1, 0]
    assert list(ancestors(NESTED, 0)) == []
