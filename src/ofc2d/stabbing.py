"""Rectangle stabbing in 2D and 3D: report the payload of every stored box
containing a query point, output-sensitively.

Stab2D takes ``(rect, payload)`` pairs and is a segment tree over x
elementary intervals with a centered interval tree over y per node.  Stab3D
takes ``(rect, zlo, zhi, payload)`` tuples and is a fan-out-H range tree over
z elementary intervals with one Stab2D per node.  Both store a box at the
canonical nodes of its range, and one search path meets at most one of them,
so a query returns a list holding each containing box's payload exactly once
with no post-filtering.
"""

from __future__ import annotations

import bisect

from .errors import InvalidFanout
from .geometry import Point
from .intervals import IntervalTree1D


class Stab2D:
    __slots__ = ("xs", "m", "trees", "stored_entries")

    def __init__(self, items):
        items = list(items)
        xs = sorted({x for r, _ in items for x in (r.xlo, r.xhi)})
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

        for rect, payload in items:
            l = bisect.bisect_left(xs, rect.xlo)
            r = bisect.bisect_left(xs, rect.xhi)
            insert(1, 0, self.m, l, r, (rect.ylo, rect.yhi, payload))
        self.trees = {node: IntervalTree1D(b) for node, b in buckets.items()}
        self.stored_entries = sum(t.size for t in self.trees.values())

    def query(self, q: Point, counters=None) -> list:
        out = []
        i = bisect.bisect_right(self.xs, q.x) - 1
        if i < 0 or i >= len(self.xs) - 1:
            return out
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
        return out


class Stab3D:
    __slots__ = ("zs", "m", "children", "stabs", "ranges", "stored_entries")

    def __init__(self, items, H: int):
        if H < 2:
            raise InvalidFanout(f"fan-out {H} < 2")
        items = list(items)
        zs = sorted({z for _, zlo, zhi, _ in items for z in (zlo, zhi)})
        self.zs = zs
        self.m = max(1, len(zs) - 1)
        # Node 0 is the root; each node's children partition its elementary
        # z-interval range into at most H near-equal contiguous chunks.
        self.ranges = [(0, self.m)]
        self.children = [[]]
        buckets = {}

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

        def insert(node, l, r, item):
            nl, nr = self.ranges[node]
            if l <= nl and nr <= r:
                buckets.setdefault(node, []).append(item)
                return
            for c in kids(node):
                cl, cr = self.ranges[c]
                if l < cr and cl < r:
                    insert(c, l, r, item)

        for rect, zlo, zhi, payload in items:
            l = bisect.bisect_left(zs, zlo)
            r = bisect.bisect_left(zs, zhi)
            insert(0, l, r, (rect, payload))
        self.stabs = {node: Stab2D(b) for node, b in buckets.items()}
        self.stored_entries = sum(s.stored_entries for s in self.stabs.values())

    def query(self, q: Point, z: int, counters=None) -> list:
        out = []
        for node in self.z_path(z):
            if counters is not None:
                counters.stab_nodes_visited += 1
            s = self.stabs.get(node)
            if s is not None:
                out += s.query(q, counters)
        return out

    def z_path(self, z: int) -> list:
        """Range-tree nodes whose z range holds ``z``, root first; empty when
        ``z`` is outside the span of the stored boxes' z ranges."""
        i = bisect.bisect_right(self.zs, z) - 1
        if i < 0 or i >= len(self.zs) - 1:
            return []
        path = []
        node = 0
        while node is not None:
            path.append(node)
            nxt = None
            for c in self.children[node]:
                cl, cr = self.ranges[c]
                if cl <= i < cr:
                    nxt = c
                    break
            node = nxt
        return path
