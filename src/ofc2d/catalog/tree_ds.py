"""Regime dispatcher for arbitrary catalog trees.

Builds the short-path, mid-height (bootstrapped), and long-path structures
once each, and routes a query by path length: short chunked queries up to
(log n)/2, the bootstrapped mid structure up to (log² n)/2, heavy-path
composition beyond that.
"""

from __future__ import annotations

import random

from .boot import BootstrappedDS, f_chain, layer_hi
from .long_path import LongPathDS
from .model import CatalogTree, PathQuery, QueryAnswer, regime_heights
from .short_tree import ShortTreeDS

SHORT, MID, LONG = "short", "mid", "long"


class TreeDS:
    __slots__ = ("tree", "t1", "t2", "short", "mid", "long")

    def __init__(self, tree: CatalogTree, rounds: int = 1,
                 rng: random.Random | None = None):
        if rng is None:
            rng = random.Random(0)
        n = max(2, tree.n)
        self.tree = tree
        self.t1, self.t2 = regime_heights(n)
        # Mid queries have more than t1 vertices and only the deepest layer's
        # window is ever routed to, so layers whose deepest window ends at or
        # below t1 would never be used.
        chain = f_chain(n, rounds)
        if chain and layer_hi(n, chain[-1]) <= self.t1:
            rounds = 0
        self.short = ShortTreeDS(tree, rng)
        self.mid = BootstrappedDS(tree, rounds, rng, h1=self.t1, h2=self.t2)
        self.long = LongPathDS(tree)

    @property
    def stored_entries(self):
        """Entries stored so far: read on demand, so it includes the short
        regime's stabs built lazily by queries (not lazy conflict indexes)."""
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
