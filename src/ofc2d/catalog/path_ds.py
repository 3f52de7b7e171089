"""Block store of one catalog chain: blocks of ``BLOCK_C * ceil(log2 n)``
consecutive vertices, n the catalog's rect count, one 2D stabbing structure
per block over its vertices' rects, each stored with the payload (vertex,
rect id).

A stab at q inside a block returns exactly one rect per block vertex (each
vertex's tiling covers the box), so a run of the chain is answered with
about |run| / block_size stabs instead of |run| point locations.  The paper
asks for blocks of Theta(log n) vertices, so the constant ``BLOCK_C`` leaves
the bounds as they are.  A stab costs about log n node visits plus one hit
per block vertex, so a larger block trades stab descents for hits outside
the run in its two end blocks.  With ``BLOCK_C`` = 4 the long-path queries
of the benchmark visit less than half the stab nodes of ``BLOCK_C`` = 1
and store about a fifth more entries; 2, 3, 6 and 8 measured no faster.
``LongPathDS`` keeps one store per heavy path and checks each run of the
query path against ``chain`` before it asks the store for that run.
"""

from __future__ import annotations

import math

from ..errors import PointOutsideBBox
from ..stabbing import Stab2D
from .model import CatalogTree

# Vertices per block, in units of ceil(log2 n).
BLOCK_C = 4


def block_size(n: int) -> int:
    """Vertices per block of a catalog of ``n`` rects."""
    return BLOCK_C * max(1, math.ceil(math.log2(max(2, n))))


class PathDS:
    __slots__ = ("chain", "pos", "block_size", "blocks", "stored_entries")

    def __init__(self, tree: CatalogTree, chain):
        """``chain``: a list of ``tree``'s vertex ids in path order, kept as
        the tuple ``chain``; ``pos`` maps each to its index."""
        self.block_size = size = block_size(tree.n)
        self.chain = tuple(chain)
        self.pos = {v: i for i, v in enumerate(chain)}
        self.blocks = []
        self.stored_entries = 0
        for b0 in range(0, len(chain), size):
            # Rect ids need only be unique within one vertex's tiling, so a
            # hit names its vertex too.
            s = Stab2D((r, (v, r.id)) for v in chain[b0:b0 + size]
                       for r in tree.vertices[v].tiling.rects)
            self.blocks.append(s)
            self.stored_entries += s.stored_entries

    def query(self, q, lo, hi, out, counters=None):
        """Write into ``out`` the rect id containing point ``q`` of every
        chain vertex at positions ``lo`` to ``hi`` (``lo <= hi``), a checked
        run of the chain."""
        pos = self.pos
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
