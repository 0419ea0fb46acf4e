"""Bench-side spans, the profiler's rank spans, and self-time attribution.

Every span carries a solve id.  Spans are kept in memory and written
to one trace file when the run ends.  A span's self time is its
duration minus the part of its interval that its children cover
(children may overlap each other; the union is what counts).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterator

#: Layer names the attribution partitions a traced solve into.  Their
#: self times plus ``unattributed`` add up to the bench span's wall
#: time (see :func:`solve_tree`).
LAYERS = (
    "distributed.driver",
    "distributed.self",
    "kernels.ttm",
    "kernels.gram",
    "linalg",
    "mp_comm",
    "unattributed",
)


@dataclass
class SpanRec:
    sid: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    solve_id: int | None = None
    #: -1 for bench-side spans, the rank for profiler spans.
    lane: int = -1

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records bench-side spans on the wall-clock axis the profiler's
    ``wall_origin`` uses, so both kinds of span line up."""

    def __init__(self) -> None:
        self.spans: list[SpanRec] = []
        self._stack: list[int] = []
        self._wall0 = time.time()
        self._pc0 = time.perf_counter()

    def now(self) -> float:
        return self._wall0 + (time.perf_counter() - self._pc0)

    @contextmanager
    def span(
        self, name: str, layer: str, solve_id: int | None = None
    ) -> Iterator[SpanRec]:
        rec = SpanRec(
            len(self.spans),
            name,
            layer,
            self.now(),
            0.0,
            self._stack[-1] if self._stack else None,
            solve_id,
        )
        self.spans.append(rec)
        self._stack.append(rec.sid)
        try:
            yield rec
        finally:
            rec.end = self.now()
            self._stack.pop()

    def as_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def merged_length(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def clip_to_parents(spans: list[SpanRec]) -> float:
    """Clip every span to its parent's interval (in place, parents
    first) and return the total seconds clipped off.  Spans from two
    processes are aligned through wall clocks, so a child can stick
    out of its parent by clock skew; clipping keeps the self times a
    partition of the root."""
    by_id = {s.sid: s for s in spans}
    spill = 0.0
    for s in sorted(spans, key=_depth_key(by_id)):
        p = by_id.get(s.parent) if s.parent is not None else None
        if p is None:
            continue
        start, end = max(s.start, p.start), min(s.end, p.end)
        end = max(end, start)
        spill += s.seconds - (end - start)
        s.start, s.end = start, end
    return spill


def _depth_key(by_id: dict[int, SpanRec]):
    def depth(s: SpanRec) -> int:
        d = 0
        while s.parent is not None and s.parent in by_id:
            s = by_id[s.parent]
            d += 1
        return d

    return depth


def self_times(spans: list[SpanRec]) -> dict[int, float]:
    """Self time of every span: duration minus the union of its
    children's intervals, clipped to the span itself."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = merged_length(
            [
                (max(a, s.start), min(b, s.end))
                for a, b in children.get(s.sid, [])
            ]
        )
        out[s.sid] = s.seconds - covered
    return out


def layer_self_times(spans: list[SpanRec]) -> dict[str, float]:
    """Self time summed per layer."""
    st = self_times(spans)
    out = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + st[s.sid]
    return out


def profiler_layer(name: str, category: str) -> str:
    """Layer a profiler span belongs to, by its name and category."""
    if category == "collective":
        return "mp_comm"
    if name == "ttm:gemm":
        return "kernels.ttm"
    if name == "gram:local":
        return "kernels.gram"
    if name.startswith("llsv:") or name == "gram:evd":
        return "linalg"
    if category in ("sweep", "phase") or name in (
        "core:assemble",
        "checkpoint",
        "buddy_replicate",
    ):
        return "distributed.self"
    return "unattributed"


def rank_extent(profile) -> tuple[float, float]:
    """Wall-clock ``(start, end)`` of a rank's recorded spans."""
    if not profile.spans:
        return profile.wall_origin, profile.wall_origin
    start = min(s.start for s in profile.spans)
    end = max(s.end for s in profile.spans)
    return profile.wall_origin + start, profile.wall_origin + end


def rank_spans(profile, root: SpanRec, next_sid: int) -> list[SpanRec]:
    """One rank's profiler spans as a tree under a synthetic extent
    span (layer ``unattributed``: rank time no profiler span covers),
    itself a child of the bench-side ``root``."""
    start, end = rank_extent(profile)
    extent = SpanRec(
        next_sid,
        f"rank {profile.rank}",
        "unattributed",
        start,
        end,
        root.sid,
        root.solve_id,
        profile.rank,
    )
    out = [extent]
    # Spans are stored when they end; sort by start (outer spans first
    # on ties) and use the recorded nesting depth to find each parent.
    stack: list[tuple[int, SpanRec]] = []
    for s in sorted(profile.spans, key=lambda s: (s.start, s.depth)):
        while stack and stack[-1][0] >= s.depth:
            stack.pop()
        parent = stack[-1][1] if stack else extent
        rec = SpanRec(
            next_sid + len(out),
            s.name,
            profiler_layer(s.name, s.category),
            profile.wall_origin + s.start,
            profile.wall_origin + s.end,
            parent.sid,
            root.solve_id,
            profile.rank,
        )
        out.append(rec)
        stack.append((s.depth, rec))
    return out


def rank_tree(profile) -> list[SpanRec]:
    """One rank's spans under a root spanning the rank's extent."""
    start, end = rank_extent(profile)
    root = SpanRec(0, f"rank {profile.rank}", "unattributed", start, end, None)
    return [root] + rank_spans(profile, root, 1)


def solve_tree(root: SpanRec, profiles: dict) -> tuple[list[SpanRec], int, float]:
    """The attribution tree of one traced solve.

    ``root`` is the bench span around the public driver call (layer
    ``distributed.driver``: its self time is fork, scatter, gather and
    teardown).  Under it hangs the critical rank's lane: the rank whose
    spans cover the longest extent.  Returns the tree (root first, a
    fresh copy), the critical rank, and the seconds clipped by
    :func:`clip_to_parents`.
    """
    crit = max(profiles.values(), key=lambda p: rank_extent(p)[1] - rank_extent(p)[0])
    top = SpanRec(0, root.name, "distributed.driver", root.start, root.end, None, root.solve_id)
    tree = [top] + rank_spans(crit, top, 1)
    spill = clip_to_parents(tree)
    return tree, crit.rank, spill
