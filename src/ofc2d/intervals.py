"""Centered interval tree for 1D stabbing: report all half-open intervals
containing a query value in O(log n + t) node visits."""

from __future__ import annotations


class IntervalTree1D:
    """Static interval tree over half-open intervals (lo, hi, payload).

    Each node keeps the intervals crossing its center, sorted by lo ascending
    and by hi descending, so a stab enumerates exactly the hits plus one
    overshoot per node.  ``up`` is set only on a tree that Stab2D stores at a
    segment-tree node: the nearest non-empty tree above it, or None.
    """

    __slots__ = ("center", "by_lo", "by_hi_desc", "left", "right", "size", "up")

    def __init__(self, items):
        items = list(items)
        self.size = len(items)
        if not items:
            self.center = 0
            self.by_lo = []
            self.by_hi_desc = []
            self.left = self.right = None
            return
        endpoints = sorted(set(x for lo, hi, _ in items for x in (lo, hi)))
        # Lower median guarantees both subtrees lose at least one distinct
        # endpoint, so recursion terminates even on duplicate-heavy inputs.
        self.center = endpoints[(len(endpoints) - 1) // 2]
        here, left, right = [], [], []
        for it in items:
            lo, hi, _ = it
            if hi <= self.center:
                left.append(it)
            elif lo > self.center:
                right.append(it)
            else:
                here.append(it)
        self.by_lo = sorted(here, key=lambda it: it[0])
        self.by_hi_desc = sorted(here, key=lambda it: -it[1])
        self.left = IntervalTree1D(left) if left else None
        self.right = IntervalTree1D(right) if right else None

    def stab(self, q, out, counters=None):
        """Append payloads of intervals with lo <= q < hi to ``out``."""
        node = self
        while node is not None:
            if counters is not None:
                counters.stab_nodes_visited += 1
            if q < node.center:
                for lo, hi, payload in node.by_lo:
                    if lo > q:
                        break
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
