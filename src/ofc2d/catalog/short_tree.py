"""Query structure for shallow catalog trees.

Each vertex gets a coarse cutting with ~r² conflicts per cell; every simple
tree path of at most L = ceil(log2 r) vertices gets one 2D stabbing structure
over its members' cutting cells (built lazily on first use), each cell stored
with its vertex, cutting and cell index as payload.  A query path is chopped
into such chunks, each answered by one stab plus one small conflict-list
point location per reported cell.  A vertex whose cutting has one cell is
located directly in that cell's conflict index: a stab over it could only
ever report that cell.
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

    A one-cell cutting is kept in ``direct`` as (answer key, cutting), and
    its vertex is located in the cell's conflict index, with no stab.  Each
    cell of a multi-cell cutting is stored with the payload (answer key,
    cutting, cell index), and each chunk of at most L consecutive path
    vertices is answered by one Stab2D over the cells of its vertices with
    multi-cell cuttings, built on first use and cached under the sorted tuple
    of those vertices, so chunks that differ only in order or in other
    vertices share one stab.  Subclasses build the cuttings and check the
    path; a vertex given no cutting gets no answer, and a chunk with no
    multi-cell cutting is skipped.  ``stored_entries`` counts the cuttings'
    conflict lists, not the stabs that queries build.
    """

    __slots__ = ("r", "L", "cuttings", "direct", "cells", "_stabs", "stored_entries")

    def _init_engine(self, n):
        logn = math.log2(max(2, n))
        self.r = 2 ** math.ceil(math.sqrt(logn))
        self.L = max(1, math.ceil(math.log2(self.r)))
        self.cuttings = {}
        self.direct = {}  # vertex -> (answer key, one-cell cutting)
        self.cells = {}  # vertex -> [(cell, (answer key, cutting, cell index))]
        self._stabs = {}
        self.stored_entries = 0

    def _add_cutting(self, vid, cut, key):
        """Add vertex ``vid``'s cutting; its answers are stored under ``key``."""
        self.cuttings[vid] = cut
        if len(cut.cells) == 1:
            self.direct[vid] = (key, cut)
        else:
            self.cells[vid] = [(cell, (key, cut, i))
                               for i, cell in enumerate(cut.cells.rects)]
        self.stored_entries += sum(len(c) for c in cut.conflicts)

    def _locate_chunks(self, q, path, counters) -> dict:
        """Answer key -> id of the rect containing point ``q``, for every
        vertex of ``path`` that has a cutting; the caller has checked that
        consecutive vertices are adjacent."""
        out = {}
        direct = self.direct
        for v in path:
            hit = direct.get(v)
            if hit is not None:
                out[hit[0]] = hit[1].locate(0, q, counters)
        cells = self.cells
        if cells:
            L = self.L
            for i in range(0, len(path), L):
                key = tuple(sorted(v for v in path[i:i + L] if v in cells))
                if not key:
                    continue
                s = self._stabs.get(key)
                if s is None:
                    s = self._stabs[key] = Stab2D([it for v in key for it in cells[v]])
                hits = s.query(q, counters)
                if counters is not None:
                    counters.structures_queried += 1
                for k, cut, ci in hits:
                    out[k] = cut.locate(ci, q, counters)
        # Cells tile the bbox, so only a point outside it is in none of them.
        if path and not out:
            raise PointOutsideBBox(f"{q} outside the catalog bbox")
        return out


class ShortTreeDS(ChunkedStabDS):
    __slots__ = ("tree",)

    def __init__(self, tree: CatalogTree, rng: random.Random):
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
