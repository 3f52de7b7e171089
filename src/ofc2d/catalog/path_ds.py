"""Query structure for catalog paths: blocks of consecutive vertices, one 2D
stabbing structure per block over its vertices' rects, each stored with the
payload (vertex, rect id).

A stab at q inside a block returns exactly one rect per block vertex (each
vertex's tiling covers the box), so a path query touches about
|path| / block_size structures instead of |path| point locations.
"""

from __future__ import annotations

import math

from ..errors import PointOutsideBBox, VertexNotOnPath
from ..stabbing import Stab2D
from .model import CatalogTree, PathQuery, QueryAnswer, check_vertices


class PathDS:
    __slots__ = ("vertices", "order", "pos", "block_size", "blocks",
                 "stored_entries")

    def __init__(self, chain, vertices, block_size=None):
        """``chain``: vertex ids in path order; ``vertices``: id -> CatalogVertex."""
        if block_size is None:
            n = max(2, sum(len(vertices[v].tiling) for v in chain))
            block_size = max(1, math.ceil(math.log2(n)))
        self.vertices = vertices
        self.order = list(chain)
        self.pos = {v: i for i, v in enumerate(chain)}
        self.block_size = block_size
        self.blocks = []
        self.stored_entries = 0
        for b0 in range(0, len(self.order), block_size):
            # Rect ids need only be unique within one vertex's tiling, so a
            # hit names its vertex too.
            s = Stab2D((r, (v, r.id)) for v in self.order[b0:b0 + block_size]
                       for r in vertices[v].tiling.rects)
            self.blocks.append(s)
            self.stored_entries += s.stored_entries

    def query(self, q: PathQuery, counters=None) -> QueryAnswer:
        try:
            idxs = [self.pos[v] for v in q.path]
        except KeyError as e:
            check_vertices(self.vertices, q.path)
            raise VertexNotOnPath(f"vertex {e.args[0]} not on the catalog path")
        lo, hi = min(idxs), max(idxs)
        if hi - lo + 1 != len(q.path):
            raise VertexNotOnPath("query path is not contiguous on the catalog path")
        wanted = set(q.path)
        out = {}
        for b in range(lo // self.block_size, hi // self.block_size + 1):
            hits = self.blocks[b].query(q.q, counters)
            if counters is not None:
                counters.structures_queried += 1
            # Each block vertex's tiling covers the bbox, so only a point
            # outside it is in no rect.
            if not hits:
                raise PointOutsideBBox(f"{q.q} outside the catalog bbox")
            for v, rid in hits:
                if v in wanted:
                    out[v] = rid
        return QueryAnswer(out)


def build_path_structure(tree: CatalogTree) -> PathDS:
    chain = [tree.root]
    while tree.children[chain[-1]]:
        kids = tree.children[chain[-1]]
        if len(kids) != 1:
            raise ValueError("catalog is not a simple path")
        chain.append(kids[0])
    if len(chain) != len(tree.vertices):
        raise ValueError("catalog is not a simple path")
    return PathDS(chain, tree.vertices)
