"""Regime dispatcher for arbitrary catalog trees.

Builds the short-path and mid-height structures once each, and the
long-path stores only on a tree with a path longer than (log² n)/2, and
routes a query by path length: short chunked queries up to (log n)/2, the
mid-tree structure (a ``BootstrappedDS`` with no layers) up to (log² n)/2,
heavy-path composition beyond that.
"""

from __future__ import annotations

import random

from .boot import BootstrappedDS
from .long_path import LongPathDS
from .model import CatalogTree, PathQuery, QueryAnswer, regime_heights
from .short_tree import ShortTreeDS

SHORT, MID, LONG = "short", "mid", "long"


class TreeDS:
    __slots__ = ("t1", "t2", "short", "mid", "long")

    def __init__(self, tree: CatalogTree, rng: random.Random):
        n = max(2, tree.n)
        self.t1, self.t2 = regime_heights(n)
        self.short = ShortTreeDS(tree, rng)
        # No bootstrap layer: mid queries have more than t1 vertices, and no
        # layer's window passes t1 below about 3.77M rects (2^21.85).
        self.mid = BootstrappedDS(tree, 0, rng)
        self.long = LongPathDS(tree, self.t2 + 1)

    @property
    def stored_entries(self):
        """Entries stored so far: read on demand, so it includes the short
        regime's stabs built lazily by queries (not lazy conflict indexes).
        The long part is 0 on a tree with no path longer than ``t2``."""
        return (self.short.stored_entries + self.mid.stored_entries
                + self.long.stored_entries)

    def regime(self, path_len: int) -> str:
        if path_len <= self.t1:
            return SHORT
        if path_len <= self.t2:
            return MID
        return LONG

    def query(self, q: PathQuery, counters=None) -> QueryAnswer:
        r = self.regime(len(q.path))
        if r == SHORT:
            return self.short.query(q, counters)
        if r == MID:
            return self.mid.query(q, counters)
        return self.long.query(q, counters)
