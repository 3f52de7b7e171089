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
from ..errors import HeightOutOfRegime
from ..geometry import Rect
from ..stabbing import Stab2D
from .model import CatalogTree, PathQuery, QueryAnswer, check_path


def enumerate_subpaths(tree: CatalogTree, max_len: int):
    """All simple paths with 1..max_len vertices, one canonical key each:
    the chunk keys a ShortTreeDS with L = max_len can build a stab for.

    A path is its apex (highest vertex) plus downward arms into at most two
    distinct child subtrees.
    """
    down = {}  # v -> list of downward vertex tuples starting at v, len <= max_len

    order = [tree.root]
    for u in order:
        order.extend(tree.children[u])
    for v in reversed(order):
        paths = [(v,)]
        for c in tree.children[v]:
            for p in down[c]:
                if 1 + len(p) <= max_len:
                    paths.append((v,) + p)
        down[v] = paths

    out = set()
    for v in order:
        arms = {}
        for c in tree.children[v]:
            arms[c] = [p for p in down[c] if len(p) < max_len]
        for c, ps in arms.items():
            for p in ps:
                out.add(_canon((v,) + p))
        kids = list(arms)
        for i in range(len(kids)):
            for j in range(i + 1, len(kids)):
                for p1 in arms[kids[i]]:
                    for p2 in arms[kids[j]]:
                        if len(p1) + len(p2) + 1 <= max_len:
                            out.add(_canon(tuple(reversed(p1)) + (v,) + p2))
        out.add((v,))
    return out


def _canon(seq):
    rev = tuple(reversed(seq))
    return seq if seq <= rev else rev


class ChunkedStabDS:
    """The chunked-stab engine shared by ShortTreeDS and GraphDS.

    Every vertex's cutting cells get catalog-wide ids (``cell_owner`` maps
    one to its answer key, its vertex's cutting and its local cell index),
    and each chunk of at most L consecutive path vertices is answered by one
    Stab2D over the chunk's cells, built on first use and cached under the
    chunk's canonical key.  Subclasses build the cuttings and check the path.
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
        vertex of ``path``, whose consecutive vertices the caller has checked
        adjacent."""
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
        return out


class ShortTreeDS(ChunkedStabDS):
    __slots__ = ("tree",)

    def __init__(self, tree: CatalogTree, rng: random.Random | None = None,
                 strict: bool = False):
        """``strict``: reject a tree taller than (log n)/2 with
        HeightOutOfRegime instead of building it."""
        logn = math.log2(max(2, tree.n))
        if strict and tree.height > logn / 2:
            raise HeightOutOfRegime(f"height {tree.height} > {logn / 2:.1f}")
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
