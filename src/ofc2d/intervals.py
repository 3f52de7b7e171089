"""Centered interval tree for 1D stabbing: report all half-open intervals
containing a query value in O(log n + t) node visits.  A node holding at most
``FLAT`` intervals is a flat leaf: one list scanned in ``lo`` order, which
counts as one ``stab_nodes_visited``."""

from __future__ import annotations

import math
from operator import itemgetter

_LO, _HI = itemgetter(0), itemgetter(1)

# A node with at most this many intervals is one flat list, not a split.
FLAT = 4


class IntervalTree1D:
    """Static interval tree over half-open intervals (lo, hi, payload).

    A node with more than ``FLAT`` intervals keeps the intervals crossing its
    center, sorted by lo ascending and by hi descending, so a stab enumerates
    exactly the hits plus one overshoot per node; a node with at most one
    crossing interval keeps one list for both orders.  A node with at most
    ``FLAT`` intervals, root or subtree, is a flat leaf: no children, all its
    intervals in one list sorted by lo that serves as both orders, and a
    center of ``math.inf``, so every stab scans it in lo order, tests each hi
    and counts it as one ``stab_nodes_visited``.  ``up`` is set only on a
    tree that Stab2D stores at a segment-tree node: the nearest non-empty
    tree above it, or None.
    """

    __slots__ = ("center", "by_lo", "by_hi_desc", "left", "right", "size", "up")

    def __init__(self, items):
        items = list(items)
        self.size = len(items)
        self.left = self.right = None
        if len(items) <= FLAT:
            # A flat leaf: above every query value, so stab takes the lo-order
            # branch; the list is never mutated, so the two fields share it.
            self.center = math.inf
            items.sort(key=_LO)
            self.by_lo = self.by_hi_desc = items
            return
        endpoints = sorted({*map(_LO, items), *map(_HI, items)})
        # Lower median guarantees both subtrees lose at least one distinct
        # endpoint, so recursion terminates even on duplicate-heavy inputs.
        center = self.center = endpoints[(len(endpoints) - 1) // 2]
        here, left, right = [], [], []
        for it in items:
            if it[1] <= center:
                left.append(it)
            elif it[0] > center:
                right.append(it)
            else:
                here.append(it)
        if left:
            self.left = IntervalTree1D(left)
        if right:
            self.right = IntervalTree1D(right)
        if len(here) <= 1:
            # Both orders of at most one interval are the same list; it is
            # never mutated, so the two fields share it.
            self.by_lo = self.by_hi_desc = here
        else:
            # A stable descending sort keeps equal his in input order, as
            # key=-hi did; it runs before ``here`` is sorted by lo in place.
            self.by_hi_desc = sorted(here, key=_HI, reverse=True)
            here.sort(key=_LO)
            self.by_lo = here

    def stab(self, q, out, counters=None):
        """Append payloads of intervals with lo <= q < hi to ``out``."""
        node = self
        while node is not None:
            if counters is not None:
                counters.stab_nodes_visited += 1
            if q < node.center:
                # A crossing interval has hi > center > q, so only a flat
                # leaf's intervals can fail the hi test.
                for lo, hi, payload in node.by_lo:
                    if lo > q:
                        break
                    if q < hi:
                        out.append(payload)
                node = node.left
            else:
                # q >= center: every crossing interval has lo <= center <= q.
                for lo, hi, payload in node.by_hi_desc:
                    if hi <= q:
                        break
                    out.append(payload)
                node = node.right
        return out
