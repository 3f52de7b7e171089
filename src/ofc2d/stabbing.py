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
An interval-tree node with at most ``intervals.FLAT`` intervals is a flat
leaf, one list scanned in lo order, and counts as one stab node visited.
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
        # A recursive closure holds itself through its cell; dropping the
        # names breaks that cycle, so the buckets are freed here, not left to
        # a full collection.
        del insert, flatten
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
    non-empty node, stored flat like Stab2D: per z slab, the depth of its
    leaf (``zdepth``) and the deepest non-empty Stab2D on its root-to-leaf
    path (``zdeepest``).  A node's children split its range into chunks of
    ceil(span/H) elementary intervals, the last one shorter, down to single
    intervals.  The tree is full, as one split only where inserts pass would
    be too: each interior key of a node ends some box, whose insert passes
    through the node.  A leaf in a short last chunk can be shallower than
    ceil(log_H m) + 1 for m intervals."""

    __slots__ = ("zs", "zdepth", "zdeepest", "stored_entries")

    def __init__(self, items, H: int):
        if H < 2:
            raise InvalidParameter(f"fan-out {H} < 2")
        items = list(items)
        zs = sorted({z for _, zlo, zhi, _ in items for z in (zlo, zhi)})
        self.zs = zs
        m = max(1, len(zs) - 1)
        # Node 0 is the root over all m intervals; the j-th chunk child of
        # node k is node k*H + 1 + j.
        buckets = {}

        def insert(node, nl, nr, l, r, item):
            if l <= nl and nr <= r:
                buckets.setdefault(node, []).append(item)
                return
            # Only the chunks that meet [l, r) are visited, which keeps this
            # as fast as a loop over stored child ranges; l < r, and the
            # node meets [l, r).
            step = -(-(nr - nl) // H)
            j = (l - nl) // step if l > nl else 0
            a = nl + j * step
            end = r if r < nr else nr
            while a < end:
                b = a + step
                insert(node * H + 1 + j, a, b if b < nr else nr, l, r, item)
                a = b
                j += 1

        for rect, zlo, zhi, payload in items:
            l = bisect.bisect_left(zs, zlo)
            r = bisect.bisect_left(zs, zhi)
            # A box with zlo == zhi holds no z slab.
            if l < r:
                insert(0, 0, m, l, r, (rect, payload))
        stabs = {node: Stab2D(b) for node, b in buckets.items()}
        self.stored_entries = sum(s.stored_entries for s in stabs.values())
        zdepth = bytearray(m)
        zdeepest = [None] * m

        def flatten(node, nl, nr, d, up):
            s = stabs.get(node)
            if s is not None:
                s.up = up
                up = s
            if nr - nl <= 1:
                zdepth[nl] = d
                zdeepest[nl] = up
                return
            step = -(-(nr - nl) // H)
            for j, a in enumerate(range(nl, nr, step)):
                flatten(node * H + 1 + j, a, min(a + step, nr), d + 1, up)

        flatten(0, 0, m, 1, None)
        # Break the recursive closures' cycles, as in Stab2D.
        del insert, flatten
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
