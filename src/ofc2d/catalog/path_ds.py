"""Query structure for catalog paths: blocks of consecutive vertices, one 2D
stabbing structure per block.

A stab at q inside a block returns exactly one rect per block vertex (each
vertex's tiling covers the box), so a path query touches about
|path| / block_size structures instead of |path| point locations.
"""

from __future__ import annotations

import math

from ..errors import VertexNotOnPath
from ..geometry import Rect
from ..stabbing import Stab2D
from .model import CatalogTree, PathQuery, QueryAnswer


class PathDS:
    __slots__ = ("order", "pos", "block_size", "blocks", "owners",
                 "stored_entries")

    def __init__(self, chain, vertices, block_size=None):
        """``chain``: vertex ids in path order; ``vertices``: id -> CatalogVertex."""
        if block_size is None:
            n = max(2, sum(len(vertices[v].tiling) for v in chain))
            block_size = max(1, math.ceil(math.log2(n)))
        self.order = list(chain)
        self.pos = {v: i for i, v in enumerate(chain)}
        self.block_size = block_size
        self.blocks = []
        # Rect ids need only be unique within one vertex's tiling, so each
        # block renumbers its rects; owners[b][i] is (vertex, rect id).
        self.owners = []
        self.stored_entries = 0
        for b0 in range(0, len(self.order), block_size):
            rects, owner = [], []
            for v in self.order[b0:b0 + block_size]:
                for r in vertices[v].tiling.rects:
                    rects.append(Rect(len(owner), r.xlo, r.xhi, r.ylo, r.yhi))
                    owner.append((v, r.id))
            s = Stab2D(rects)
            self.blocks.append(s)
            self.owners.append(owner)
            self.stored_entries += s.stored_entries

    def query(self, q: PathQuery, counters=None) -> QueryAnswer:
        try:
            idxs = [self.pos[v] for v in q.path]
        except KeyError as e:
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
            owner = self.owners[b]
            for i in hits:
                v, rid = owner[i]
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
