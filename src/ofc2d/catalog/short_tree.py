"""Query structure for shallow catalog trees.

Each vertex gets a coarse cutting with ~r² conflicts per cell; every simple
tree path of at most L = ceil(log2 r) vertices gets one 2D stabbing structure
over its members' cutting cells (built lazily on first use), each cell stored
with its vertex, cutting and cell index as payload.  A query path is chopped
into such chunks, each answered by one stab plus one small conflict-list
point location per reported cell.
"""

from __future__ import annotations

import math
import random

from ..cutting import cutting_build
from ..errors import PointOutsideBBox
from ..stabbing import Stab2D
from .model import CatalogTree, PathQuery, QueryAnswer, check_path


class ChunkedStabDS:
    """The chunked-stab engine shared by ShortTreeDS and GraphDS.

    Each cutting cell is stored with the payload (answer key, cutting, cell
    index), and each chunk of at most L consecutive path vertices is answered
    by one Stab2D over the chunk's cells, built on first use and cached under
    the sorted tuple of the chunk's vertices that own cells, so chunks that
    differ only in order or in vertices without cells share one stab.
    Subclasses build the cuttings and check the path; a vertex given no
    cutting owns no cells and gets no answer, and a chunk of such vertices is
    skipped.
    """

    __slots__ = ("r", "L", "cuttings", "cells", "_stabs", "stored_entries")

    def _init_engine(self, n):
        logn = math.log2(max(2, n))
        self.r = 2 ** math.ceil(math.sqrt(logn))
        self.L = max(1, math.ceil(math.log2(self.r)))
        self.cuttings = {}
        self.cells = {}  # vertex -> [(cell, (answer key, cutting, cell index))]
        self._stabs = {}
        self.stored_entries = 0

    def _add_cutting(self, vid, cut, key):
        """Add vertex ``vid``'s cutting; its answers are stored under ``key``."""
        self.cuttings[vid] = cut
        self.cells[vid] = [(cell, (key, cut, i))
                           for i, cell in enumerate(cut.cells.rects)]
        self.stored_entries += sum(len(c) for c in cut.conflicts)

    def _locate_chunks(self, q, path, counters) -> dict:
        """Answer key -> id of the rect containing point ``q``, for every
        vertex of ``path`` that owns cells; the caller has checked that
        consecutive vertices are adjacent."""
        L = self.L
        cells = self.cells
        out = {}
        for i in range(0, len(path), L):
            key = tuple(sorted(v for v in path[i:i + L] if v in cells))
            if not key:
                continue
            s = self._stabs.get(key)
            if s is None:
                s = self._stabs[key] = Stab2D([it for v in key for it in cells[v]])
                self.stored_entries += s.stored_entries
            hits = s.query(q, counters)
            if counters is not None:
                counters.structures_queried += 1
            for k, cut, ci in hits:
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
