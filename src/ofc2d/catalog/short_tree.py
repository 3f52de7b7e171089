"""Query structure for shallow catalog trees.

Each vertex gets a coarse cutting with ~r² conflicts per cell; every simple
tree path of at most L = ceil(log2 r) vertices gets one 2D stabbing structure
over its members' cutting cells (built lazily on first use).  A query path is
chopped into such chunks, each answered by one stab plus one small
conflict-list point location per vertex.
"""

from __future__ import annotations

import math
import random

from ..cutting import cutting_build
from ..errors import PointOutsideBBox
from ..geometry import Rect
from ..stabbing import Stab2D
from .model import CatalogTree, PathQuery, QueryAnswer, check_path


class ChunkedStabDS:
    """The chunked-stab engine shared by ShortTreeDS and GraphDS.

    Every vertex's cutting cells get catalog-wide ids (``cell_owner`` maps
    one to its answer key, its vertex's cutting and its local cell index),
    and each chunk of at most L consecutive path vertices is answered by one
    Stab2D over the chunk's cells, built on first use and cached under the
    chunk's canonical key.  Subclasses build the cuttings and check the path;
    a vertex given no cutting owns no cells and gets no answer.
    """

    __slots__ = ("r", "L", "cuttings", "cell_rects", "cell_owner", "_stabs",
                 "stored_entries")

    def _init_engine(self, n):
        logn = math.log2(max(2, n))
        self.r = 2 ** math.ceil(math.sqrt(logn))
        self.L = max(1, math.ceil(math.log2(self.r)))
        self.cuttings = {}
        self.cell_rects = {}  # vertex -> cells re-idd with global cell ids
        self.cell_owner = []  # global cell id -> (answer key, cutting, local index)
        self._stabs = {}
        self.stored_entries = 0

    def _add_cutting(self, vid, cut, key):
        """Add vertex ``vid``'s cutting; its answers are stored under ``key``."""
        self.cuttings[vid] = cut
        gid = len(self.cell_owner)
        rects = []
        for i, cell in enumerate(cut.cells.rects):
            rects.append(Rect(gid + i, cell.xlo, cell.xhi, cell.ylo, cell.yhi))
            self.cell_owner.append((key, cut, i))
        self.cell_rects[vid] = rects
        self.stored_entries += sum(len(c) for c in cut.conflicts)

    def _stab_for(self, key) -> Stab2D:
        s = self._stabs.get(key)
        if s is None:
            s = Stab2D([r for v in key for r in self.cell_rects[v]])
            self._stabs[key] = s
            self.stored_entries += s.stored_entries
        return s

    def _locate_chunks(self, q, path, counters) -> dict:
        """Answer key -> id of the rect containing point ``q``, for every
        vertex of ``path`` that owns cells; the caller has checked that
        consecutive vertices are adjacent."""
        L, owner = self.L, self.cell_owner
        out = {}
        for i in range(0, len(path), L):
            chunk = tuple(path[i:i + L])
            key = chunk if chunk <= chunk[::-1] else chunk[::-1]
            hits = self._stab_for(key).query(q, counters)
            if counters is not None:
                counters.structures_queried += 1
            for gid in hits:
                k, cut, ci = owner[gid]
                out[k] = cut.conflict_index(ci).locate(q, counters)
                if counters is not None:
                    counters.cells_located += 1
        # Cells tile the bbox, so only a point outside it is in none of them.
        if path and not out:
            raise PointOutsideBBox(f"{q} outside the catalog bbox")
        return out


class ShortTreeDS(ChunkedStabDS):
    __slots__ = ("tree",)

    def __init__(self, tree: CatalogTree, rng: random.Random | None = None):
        if rng is None:
            rng = random.Random(0)
        self.tree = tree
        self._init_engine(tree.n)
        for vid, v in tree.vertices.items():
            ni = len(v.tiling)
            rho = max(1, min(ni, math.ceil(ni / self.r ** 2)))
            self._add_cutting(vid, cutting_build(v.tiling, rho, rng), vid)

    def query(self, q: PathQuery, counters=None) -> QueryAnswer:
        # In a tree every adjacent pair is a parent and a child, so each chunk
        # of an adjacency-checked path is itself a simple tree path.
        check_path(self.tree, q.path)
        return QueryAnswer(self._locate_chunks(q.q, q.path, counters))
