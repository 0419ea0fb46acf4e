"""Self-time attribution on hand-built span trees.

Run with ``python3 -m pytest tuckerbench/test_spans.py`` from the
checkout root.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import (  # noqa: E402
    LAYERS,
    SpanRec,
    clip_to_parents,
    layer_self_times,
    merged_length,
    self_times,
    solve_tree,
)


def _span(sid, start, end, parent=None, layer="unattributed", name=""):
    return SpanRec(sid, name or f"s{sid}", layer, start, end, parent)


def test_merged_length_unions_overlaps_and_nesting():
    assert merged_length([]) == 0.0
    assert merged_length([(0, 1), (2, 3)]) == pytest.approx(2.0)
    assert merged_length([(0, 2), (1, 3)]) == pytest.approx(3.0)
    assert merged_length([(0, 4), (1, 2), (3, 5)]) == pytest.approx(5.0)
    assert merged_length([(1, 1), (2, 1)]) == 0.0  # empty / inverted


def test_self_time_subtracts_union_of_overlapping_children():
    # root [0, 10] with children [1, 4] and [3, 6] overlapping on [3, 4],
    # and [8, 9]; the first child has a grandchild [2, 3].
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 3.0, 6.0, parent=0),
        _span(3, 8.0, 9.0, parent=0),
        _span(4, 2.0, 3.0, parent=1),
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 6.0)  # children cover [1,6] + [8,9]
    assert st[1] == pytest.approx(3.0 - 1.0)
    assert st[2] == pytest.approx(3.0)
    assert st[3] == pytest.approx(1.0)
    assert st[4] == pytest.approx(1.0)


def test_overlapping_children_make_self_times_exceed_wall():
    """Overlapping siblings each keep their own self time, so the sum
    over a tree with overlap is more than the root's duration; the
    attribution tree is one lane and has no such overlap."""
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 3.0, 6.0, parent=0),
    ]
    assert sum(self_times(spans).values()) == pytest.approx(11.0)


def test_nested_lane_self_times_partition_the_root():
    spans = [
        _span(0, 0.0, 10.0, layer="distributed.driver"),
        _span(1, 1.0, 9.0, parent=0, layer="unattributed"),
        _span(2, 1.5, 5.0, parent=1, layer="distributed.self"),
        _span(3, 2.0, 3.0, parent=2, layer="kernels.ttm"),
        _span(4, 3.0, 4.5, parent=2, layer="mp_comm"),
        _span(5, 6.0, 8.0, parent=1, layer="linalg"),
    ]
    layers = layer_self_times(spans)
    assert set(LAYERS) <= set(layers)
    assert sum(layers.values()) == pytest.approx(10.0)
    assert layers["distributed.driver"] == pytest.approx(2.0)
    assert layers["unattributed"] == pytest.approx(8.0 - 3.5 - 2.0)
    assert layers["distributed.self"] == pytest.approx(3.5 - 2.5)
    assert layers["kernels.ttm"] == pytest.approx(1.0)
    assert layers["mp_comm"] == pytest.approx(1.5)
    assert layers["linalg"] == pytest.approx(2.0)


def test_clip_to_parents_keeps_partition_under_clock_skew():
    # The child lane starts before and ends after its parent by skew.
    spans = [
        _span(0, 1.0, 5.0),
        _span(1, 0.5, 5.5, parent=0),
        _span(2, 0.5, 2.0, parent=1),
    ]
    spill = clip_to_parents(spans)
    assert spill == pytest.approx(1.0 + 0.5)
    assert (spans[1].start, spans[1].end) == (1.0, 5.0)
    assert (spans[2].start, spans[2].end) == (1.0, 2.0)
    assert sum(self_times(spans).values()) == pytest.approx(4.0)


@dataclass
class _FakeSpan:
    name: str
    category: str
    phase: str
    start: float
    seconds: float
    depth: int

    @property
    def end(self):
        return self.start + self.seconds


@dataclass
class _FakeProfile:
    rank: int
    wall_origin: float
    spans: tuple


def test_solve_tree_uses_longest_rank_lane_and_closes():
    # Spans are stored in end order, as the profiler stores them.
    r0 = _FakeProfile(0, 100.0, (
        _FakeSpan("ttm:gemm", "kernel", "ttm", 0.2, 0.3, 1),
        _FakeSpan("reduce_scatter", "collective", "ttm", 0.5, 0.2, 1),
        _FakeSpan("sweep 1", "sweep", "", 0.1, 0.8, 0),
    ))
    r1 = _FakeProfile(1, 100.0, (
        _FakeSpan("sweep 1", "sweep", "", 0.1, 0.5, 0),
    ))
    root = SpanRec(7, "mp_hooi_dt", "distributed.driver", 100.0, 101.0, None, 3)
    tree, crit, spill = solve_tree(root, {0: r0, 1: r1})
    assert crit == 0
    assert spill == pytest.approx(0.0)
    assert all(s.solve_id == 3 for s in tree)
    layers = layer_self_times(tree)
    assert sum(layers.values()) == pytest.approx(1.0)
    assert layers["distributed.driver"] == pytest.approx(0.2)
    assert layers["kernels.ttm"] == pytest.approx(0.3)
    assert layers["mp_comm"] == pytest.approx(0.2)
    assert layers["distributed.self"] == pytest.approx(0.3)
    assert layers["unattributed"] == pytest.approx(0.0)
