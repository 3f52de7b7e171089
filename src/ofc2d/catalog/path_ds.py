"""Block store of one catalog chain: blocks of ceil(log2 n) consecutive
vertices, n the catalog's rect count, one 2D stabbing structure per block
over its vertices' rects, each stored with the payload (vertex, rect id).

A stab at q inside a block returns exactly one rect per block vertex (each
vertex's tiling covers the box), so a run of the chain is answered with
about |run| / block_size stabs instead of |run| point locations.
``LongPathDS`` keeps one store per heavy path and checks the query path
before it asks a store for a run.
"""

from __future__ import annotations

import math

from ..errors import PointOutsideBBox
from ..stabbing import Stab2D
from .model import CatalogTree


class PathDS:
    __slots__ = ("pos", "block_size", "blocks", "stored_entries")

    def __init__(self, tree: CatalogTree, chain):
        """``chain``: a list of ``tree``'s vertex ids in path order."""
        block_size = max(1, math.ceil(math.log2(max(2, tree.n))))
        self.pos = {v: i for i, v in enumerate(chain)}
        self.block_size = block_size
        self.blocks = []
        self.stored_entries = 0
        for b0 in range(0, len(chain), block_size):
            # Rect ids need only be unique within one vertex's tiling, so a
            # hit names its vertex too.
            s = Stab2D((r, (v, r.id)) for v in chain[b0:b0 + block_size]
                       for r in tree.vertices[v].tiling.rects)
            self.blocks.append(s)
            self.stored_entries += s.stored_entries

    def query(self, q, first, last, out, counters=None):
        """Write into ``out`` the rect id containing point ``q`` of every
        chain vertex from ``first`` to ``last``, a checked run of the chain."""
        pos = self.pos
        lo, hi = pos[first], pos[last]
        if lo > hi:
            lo, hi = hi, lo
        b_lo, b_hi = lo // self.block_size, hi // self.block_size
        for b in range(b_lo, b_hi + 1):
            hits = self.blocks[b].query(q, counters)
            # Each block vertex's tiling covers the bbox, so only a point
            # outside it is in no rect.
            if not hits:
                raise PointOutsideBBox(f"{q} outside the catalog bbox")
            if b_lo < b < b_hi:
                # An interior block holds only vertices of the run.
                out.update(hits)
            else:
                for v, rid in hits:
                    if lo <= pos[v] <= hi:
                        out[v] = rid
