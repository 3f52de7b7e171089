"""Bootstrapped mid-height structure: chained cutting layers.

Layer k replaces the previous layer's per-vertex rectangles with the cells of
a coarser cutting (parameter schedule ceil(log n), log* n, log** n, ...),
builds the mid-tree structure over those cells, and keeps per-cell conflict
indexes so an answer can be drilled back down to an original rectangle.  A
query routes to the deepest layer whose path-length window covers |path|,
paying one extra small point location per vertex per layer crossed.
"""

from __future__ import annotations

import math
import random

from ..cutting import cutting_build
from ..errors import InvalidRounds
from .mid_tree import MidTreeDS
from .model import CatalogTree, CatalogVertex, PathQuery, QueryAnswer, regime_heights


def _iterated(fn, x):
    c = 0
    while x > 2:
        x = fn(x)
        c += 1
    return c


def f_chain(n, rounds):
    """Cutting-parameter schedule: ceil(log n), log* n, log** n, ... truncated
    at ``rounds`` entries or once the value drops to 3 or below."""
    out = []
    fns = [math.log2]
    for k in range(rounds):
        f = math.ceil(math.log2(n)) if k == 0 else _iterated(fns[k - 1], n)
        if k > 0:
            fk = fns[k - 1]
            fns.append(lambda x, fk=fk: _iterated(fk, x))
        if f <= 3:
            break
        out.append(f)
    return out


def layer_hi(n, f):
    """Longest path a layer cut with parameter ``f`` answers: the window
    floor((log n / log f)² / 2), which grows as f shrinks with depth."""
    return math.floor(0.5 * (math.log2(n) / max(1.0, math.log2(f))) ** 2)


class _Layer:
    __slots__ = ("f", "cuttings", "mid", "cell_tree", "hi", "cell_count")

    def __init__(self, f, cuttings, mid, cell_tree, hi, cell_count):
        self.f = f
        self.cuttings = cuttings
        self.mid = mid
        self.cell_tree = cell_tree
        self.hi = hi
        self.cell_count = cell_count


class BootstrappedDS:
    __slots__ = ("tree", "rounds", "h1", "h2", "base", "layers", "stored_entries")

    def __init__(self, tree: CatalogTree, rounds: int,
                 rng: random.Random | None = None, h1=None, h2=None):
        if rounds < 0:
            raise InvalidRounds(f"rounds {rounds} < 0")
        if rng is None:
            rng = random.Random(0)
        n = max(2, tree.n)
        d1, d2 = regime_heights(n)
        self.tree = tree
        self.rounds = rounds
        self.h1 = h1 if h1 is not None else d1
        self.h2 = h2 if h2 is not None else d2
        self.base = MidTreeDS(tree, self.h1, self.h2, rng)
        self.stored_entries = self.base.stored_entries
        self.layers = []
        prev = tree
        for f in f_chain(n, rounds):
            cuttings = {}
            vertices = {}
            cell_count = 0
            for vid, v in prev.vertices.items():
                mi = len(v.tiling)
                rho = max(1, min(mi, math.ceil(mi / f)))
                cut = cutting_build(v.tiling, rho, rng)
                cuttings[vid] = cut
                cell_count += len(cut.cells)
                vertices[vid] = CatalogVertex(vid, cut.cells, v.adjacency)
                self.stored_entries += sum(len(c) for c in cut.conflicts)
            cell_tree = CatalogTree(vertices, tree.root)
            mid = MidTreeDS(cell_tree, self.h1, self.h2, rng)
            self.stored_entries += mid.stored_entries
            self.layers.append(_Layer(f, cuttings, mid, cell_tree, layer_hi(n, f),
                                      cell_count))
            prev = cell_tree

    def layer_cell_counts(self):
        return [layer.cell_count for layer in self.layers]

    def route(self, path_len: int) -> int:
        """Index of the deepest usable layer for this path length; -1 = base."""
        for k in range(len(self.layers) - 1, -1, -1):
            if path_len <= self.layers[k].hi:
                return k
        return -1

    def query(self, q: PathQuery, counters=None) -> QueryAnswer:
        k = self.route(len(q.path))
        if k < 0:
            return self.base.query(q, counters)
        ans = self.layers[k].mid.query(q, counters)
        out = {}
        for vid, cell_id in ans.by_vertex.items():
            for j in range(k, -1, -1):
                cut = self.layers[j].cuttings[vid]
                cell_id = cut.conflict_index(cell_id).locate(q.q, counters)
            out[vid] = cell_id
        return QueryAnswer(out)
