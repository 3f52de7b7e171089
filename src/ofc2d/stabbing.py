"""Rectangle stabbing in 2D and 3D: report all stored boxes containing a
query point, output-sensitively.

Stab2D is a segment tree over x elementary intervals with a centered interval
tree over y per node.  Stab3D is a fan-out-H range tree over z elementary
intervals with one Stab2D per node; boxes are stored at canonical nodes, so
answers on the z search path need no post-filtering.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .errors import InvalidFanout
from .geometry import Point, Rect, _check_i64
from .intervals import IntervalTree1D


@dataclass(frozen=True, slots=True)
class Point3:
    x: int
    y: int
    z: int


@dataclass(frozen=True, slots=True)
class Rect3:
    id: int
    xlo: int
    xhi: int
    ylo: int
    yhi: int
    zlo: int
    zhi: int

    def __post_init__(self):
        _check_i64(self.xlo, self.xhi, self.ylo, self.yhi, self.zlo, self.zhi)
        if self.xlo >= self.xhi or self.ylo >= self.yhi or self.zlo >= self.zhi:
            raise ValueError(f"degenerate box {self}")

    def contains(self, p: Point3) -> bool:
        return (
            self.xlo <= p.x < self.xhi
            and self.ylo <= p.y < self.yhi
            and self.zlo <= p.z < self.zhi
        )


class Stab2D:
    __slots__ = ("xs", "m", "trees", "stored_entries", "n")

    def __init__(self, rects):
        rects = list(rects)
        self.n = len(rects)
        xs = sorted({x for r in rects for x in (r.xlo, r.xhi)})
        self.xs = xs
        self.m = max(1, len(xs) - 1)
        buckets = {}

        def insert(node, nl, nr, l, r, item):
            if l <= nl and nr <= r:
                buckets.setdefault(node, []).append(item)
                return
            mid = (nl + nr) // 2
            if l < mid:
                insert(2 * node, nl, mid, l, r, item)
            if r > mid:
                insert(2 * node + 1, mid, nr, l, r, item)

        for rect in rects:
            l = bisect.bisect_left(xs, rect.xlo)
            r = bisect.bisect_left(xs, rect.xhi)
            insert(1, 0, self.m, l, r, (rect.ylo, rect.yhi, rect.id))
        self.trees = {node: IntervalTree1D(items) for node, items in buckets.items()}
        self.stored_entries = sum(t.size for t in self.trees.values())

    def query(self, q: Point, counters=None) -> set:
        out = []
        if self.n == 0:
            return set()
        i = bisect.bisect_right(self.xs, q.x) - 1
        if i < 0 or i >= len(self.xs) - 1:
            return set()
        node, nl, nr = 1, 0, self.m
        while True:
            if counters is not None:
                counters.stab_nodes_visited += 1
            t = self.trees.get(node)
            if t is not None:
                t.stab(q.y, out, counters)
            if nr - nl <= 1:
                break
            mid = (nl + nr) // 2
            if i < mid:
                node, nr = 2 * node, mid
            else:
                node, nl = 2 * node + 1, mid
        return set(out)


class Stab3D:
    __slots__ = ("zs", "m", "H", "children", "stabs", "ranges", "stored_entries", "n")

    def __init__(self, rects, H: int):
        if H < 2:
            raise InvalidFanout(f"fan-out {H} < 2")
        rects = list(rects)
        self.n = len(rects)
        self.H = H
        zs = sorted({z for r in rects for z in (r.zlo, r.zhi)})
        self.zs = zs
        self.m = max(1, len(zs) - 1)
        # Node 0 is the root; each node's children partition its elementary
        # z-interval range into at most H near-equal contiguous chunks.
        self.ranges = [(0, self.m)]
        self.children = [[]]
        buckets = {0: []} if rects else {}

        def kids(node):
            if self.children[node]:
                return self.children[node]
            nl, nr = self.ranges[node]
            if nr - nl <= 1:
                return []
            span = nr - nl
            step = -(-span // H)
            for a in range(nl, nr, step):
                self.ranges.append((a, min(a + step, nr)))
                self.children[node].append(len(self.ranges) - 1)
                self.children.append([])
            return self.children[node]

        def insert(node, l, r, rect):
            nl, nr = self.ranges[node]
            if l <= nl and nr <= r:
                buckets.setdefault(node, []).append(rect)
                return
            for c in kids(node):
                cl, cr = self.ranges[c]
                if l < cr and cl < r:
                    insert(c, l, r, rect)

        for rect in rects:
            l = bisect.bisect_left(zs, rect.zlo)
            r = bisect.bisect_left(zs, rect.zhi)
            insert(0, l, r, rect)
        self.stabs = {
            node: Stab2D([Rect(b.id, b.xlo, b.xhi, b.ylo, b.yhi) for b in items])
            for node, items in buckets.items()
        }
        self.stored_entries = sum(s.stored_entries for s in self.stabs.values())

    def query(self, q: Point3, counters=None) -> set:
        if self.n == 0:
            return set()
        i = bisect.bisect_right(self.zs, q.z) - 1
        if i < 0 or i >= len(self.zs) - 1:
            return set()
        out = set()
        q2 = Point(q.x, q.y)
        node = 0
        while node is not None:
            if counters is not None:
                counters.stab_nodes_visited += 1
            s = self.stabs.get(node)
            if s is not None:
                out |= s.query(q2, counters)
            nxt = None
            for c in self.children[node]:
                cl, cr = self.ranges[c]
                if cl <= i < cr:
                    nxt = c
                    break
            node = nxt
        return out

    def z_path_length(self, z: int) -> int:
        """Number of range-tree nodes on the z search path (for tests)."""
        i = bisect.bisect_right(self.zs, z) - 1
        if i < 0 or i >= len(self.zs) - 1:
            return 0
        node, length = 0, 0
        while node is not None:
            length += 1
            nxt = None
            for c in self.children[node]:
                cl, cr = self.ranges[c]
                if cl <= i < cr:
                    nxt = c
                    break
            node = nxt
        return length
