"""Rectangle stabbing in 2D and 3D: report the payload of every stored box
containing a query point, output-sensitively.

Stab2D takes ``(rect, payload)`` pairs and is a segment tree over x
elementary intervals with a centered interval tree over y per node.  Stab3D
takes ``(rect, zlo, zhi, payload)`` tuples and is a fan-out-H range tree over
z elementary intervals with one Stab2D per node.  Both store a box at the
canonical nodes of its range, and one search path meets at most one of them,
so a query returns a list holding each containing box's payload exactly once
with no post-filtering.  Both store each slab's search path flat at build
time, so a query is one bisect followed by the non-empty nodes of its path.
"""

from __future__ import annotations

import bisect

from .errors import InvalidParameter
from .geometry import Point
from .intervals import IntervalTree1D


class Stab2D:
    """Segment tree over x elementary intervals with an IntervalTree1D per
    non-empty node, stored flat: per x slab, the depth of its leaf
    (``depth``) and the deepest non-empty tree on its root-to-leaf path
    (``deepest``).  Each tree's ``up`` links the nearest non-empty tree above
    it, so a query stabs exactly the trees of its slab's path.  ``up`` is set
    only on a Stab2D that Stab3D stores at a range-tree node: the nearest
    non-empty Stab2D above it, or None."""

    __slots__ = ("xs", "depth", "deepest", "stored_entries", "up")

    def __init__(self, items):
        items = list(items)
        xs = sorted({x for r, _ in items for x in (r.xlo, r.xhi)})
        self.xs = xs
        m = max(1, len(xs) - 1)
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
            insert(1, 0, m, l, r, (rect.ylo, rect.yhi, payload))
        trees = {node: IntervalTree1D(b) for node, b in buckets.items()}
        self.stored_entries = sum(t.size for t in trees.values())
        depth = bytearray(m)
        deepest = [None] * m

        def flatten(node, nl, nr, d, up):
            t = trees.get(node)
            if t is not None:
                t.up = up
                up = t
            if nr - nl <= 1:
                depth[nl] = d
                deepest[nl] = up
                return
            mid = (nl + nr) // 2
            flatten(2 * node, nl, mid, d + 1, up)
            flatten(2 * node + 1, mid, nr, d + 1, up)

        flatten(1, 0, m, 1, None)
        self.depth = bytes(depth)
        self.deepest = deepest

    def query(self, q: Point, counters=None) -> list:
        out = []
        i = bisect.bisect_right(self.xs, q.x) - 1
        if i < 0 or i >= len(self.xs) - 1:
            return out
        # Every node on the slab's path counts as visited, as in a walk from
        # the root; only the non-empty ones are stabbed, leaf first.
        if counters is not None:
            counters.stab_nodes_visited += self.depth[i]
        t = self.deepest[i]
        y = q.y
        while t is not None:
            t.stab(y, out, counters)
            t = t.up
        return out


class Stab3D:
    """Fan-out-H range tree over z elementary intervals with a Stab2D per
    non-empty node, stored flat like Stab2D: per z slab, the number of
    range-tree nodes on its root-to-leaf path (``zdepth``) and the deepest
    non-empty Stab2D on that path (``zdeepest``).  Nodes exist only where an
    insert split a range, so a path ends at its first unsplit node."""

    __slots__ = ("zs", "zdepth", "zdeepest", "stored_entries")

    def __init__(self, items, H: int):
        if H < 2:
            raise InvalidParameter(f"fan-out {H} < 2")
        items = list(items)
        zs = sorted({z for _, zlo, zhi, _ in items for z in (zlo, zhi)})
        self.zs = zs
        m = max(1, len(zs) - 1)
        # Node 0 is the root; each node's children partition its elementary
        # z-interval range into at most H near-equal contiguous chunks.
        ranges = [(0, m)]
        children = [[]]
        buckets = {}

        def kids(node):
            if children[node]:
                return children[node]
            nl, nr = ranges[node]
            if nr - nl <= 1:
                return []
            span = nr - nl
            step = -(-span // H)
            for a in range(nl, nr, step):
                ranges.append((a, min(a + step, nr)))
                children[node].append(len(ranges) - 1)
                children.append([])
            return children[node]

        def insert(node, l, r, item):
            nl, nr = ranges[node]
            if l <= nl and nr <= r:
                buckets.setdefault(node, []).append(item)
                return
            for c in kids(node):
                cl, cr = ranges[c]
                if l < cr and cl < r:
                    insert(c, l, r, item)

        for rect, zlo, zhi, payload in items:
            l = bisect.bisect_left(zs, zlo)
            r = bisect.bisect_left(zs, zhi)
            insert(0, l, r, (rect, payload))
        stabs = {node: Stab2D(b) for node, b in buckets.items()}
        self.stored_entries = sum(s.stored_entries for s in stabs.values())
        zdepth = bytearray(m)
        zdeepest = [None] * m

        def flatten(node, d, up):
            s = stabs.get(node)
            if s is not None:
                s.up = up
                up = s
            if not children[node]:
                nl, nr = ranges[node]
                zdepth[nl:nr] = bytes([d]) * (nr - nl)
                zdeepest[nl:nr] = [up] * (nr - nl)
                return
            for c in children[node]:
                flatten(c, d + 1, up)

        flatten(0, 1, None)
        self.zdepth = bytes(zdepth)
        self.zdeepest = zdeepest

    def query(self, q: Point, z: int, counters=None) -> list:
        out = []
        i = bisect.bisect_right(self.zs, z) - 1
        if i < 0 or i >= len(self.zs) - 1:
            return out
        # Every node on the slab's path counts as visited, as in a walk from
        # the root; only the non-empty ones are queried, deepest first.
        if counters is not None:
            counters.stab_nodes_visited += self.zdepth[i]
        s = self.zdeepest[i]
        while s is not None:
            out += s.query(q, counters)
            s = s.up
        return out
