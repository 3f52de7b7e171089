"""Structures for mid-height catalog trees.

RootLeafDS answers a root-to-leaf query with a single 3D stab: every vertex
gets a z range (leaves get unit ranges, parents the union), each cutting cell
is lifted to a 3D box over its vertex's z range with the payload (vertex,
cutting, cell index), and stabbing at the deepest vertex's z value returns
exactly one cell per path vertex.

MidTreeDS covers arbitrary mid-length paths: the tree is cut into a forest at
depth multiples of h2, each forest tree carries a halving recursion of
RootLeafDS instances, and a query splits at its apex into two descending
halves answered level by level (extended to a full root-to-leaf query at the
truncation level, with the extra answers discarded but counted).
"""

from __future__ import annotations

import math
import random

from ..cutting import cutting_build
from ..errors import InvalidHeights, NotRootToLeaf, PointOutsideBBox
from ..stabbing import Stab3D
from .model import (CatalogTree, PathQuery, QueryAnswer, assign_z_ranges, check_path,
                    check_vertices)


class SubTree(CatalogTree):
    """A connected slice of a catalog tree: the subtree under ``root``, cut
    below relative depth ``max_rel_depth`` when one is given."""

    __slots__ = ()

    def __init__(self, tree, root, max_rel_depth=None):
        self.root = root
        self.vertices = {}
        self.children = {}
        self.parent = {root: None}
        self.depth = {root: 0}
        stack = [root]
        while stack:
            u = stack.pop()
            self.vertices[u] = tree.vertices[u]
            d = self.depth[u]
            if max_rel_depth is not None and d == max_rel_depth:
                self.children[u] = []
                continue
            kids = tree.children[u]
            self.children[u] = list(kids)
            for c in kids:
                self.parent[c] = u
                self.depth[c] = d + 1
                stack.append(c)
        self._finish()


class RootLeafDS:
    __slots__ = ("tree", "r", "H", "cuttings", "z", "stab", "stored_entries")

    def __init__(self, tree, rng: random.Random | None = None):
        n = max(2, tree.n)
        h = max(1, tree.height)
        logn = math.log2(n)
        if rng is None:
            rng = random.Random(0)
        self.tree = tree
        self.r = 2 ** math.ceil(logn / math.sqrt(h))
        denom = max(1.0, math.log2(max(2.0, n / self.r)))
        self.H = max(2, int(self.r / denom))
        self.z = assign_z_ranges(tree)
        self.cuttings = {}
        boxes = []
        self.stored_entries = 0
        for vid, v in tree.vertices.items():
            ni = len(v.tiling)
            rho = max(1, min(ni, math.ceil(ni / self.r)))
            cut = cutting_build(v.tiling, rho, rng)
            self.cuttings[vid] = cut
            zlo, zhi = self.z[vid]
            boxes += [(cell, zlo, zhi, (vid, cut, i))
                      for i, cell in enumerate(cut.cells.rects)]
            self.stored_entries += sum(len(c) for c in cut.conflicts)
        self.stab = Stab3D(boxes, self.H)
        self.stored_entries += self.stab.stored_entries

    def query(self, q: PathQuery, counters=None) -> QueryAnswer:
        check_vertices(self.tree.vertices, q.path)
        if not self.tree.is_root_to_leaf(q.path):
            raise NotRootToLeaf(f"{q.path} is not a root-to-leaf path")
        return QueryAnswer(self.locate_along(q.q, q.path[-1], set(q.path), counters))

    def locate_along(self, q, end_vid, wanted, counters=None) -> dict:
        """Locate q at every ancestor of a leaf under ``end_vid``; keep the
        vertices in ``wanted``, discard (but still pay for) the rest."""
        hits = self.stab.query(q, self.z[end_vid][0], counters)
        if counters is not None:
            counters.structures_queried += 1
        # The root's cells cover the bbox at every z, so only a point outside
        # it is in no box.
        if not hits:
            raise PointOutsideBBox(f"{q} outside the catalog bbox")
        out = {}
        for vid, cut, ci in hits:
            rid = cut.conflict_index(ci).locate(q, counters)
            if counters is not None:
                counters.cells_located += 1
            if vid in wanted:
                out[vid] = rid
        return out


class _RecNode:
    """One node of the halving hierarchy over a forest tree."""

    __slots__ = ("sub", "rl", "cut", "top", "bottoms", "levels")

    def __init__(self, tree, root, h1, rng, max_rel_depth=None):
        self.sub = SubTree(tree, root, max_rel_depth)
        self.rl = RootLeafDS(self.sub, rng)
        if self.sub.height > h1:
            self.cut = math.ceil(self.sub.height / 2)
            self.top = _RecNode(self.sub, root, h1, rng, max_rel_depth=self.cut)
            self.bottoms = {}
            for vid, d in self.sub.depth.items():
                if d == self.cut and self.sub.children[vid]:
                    self.bottoms[vid] = _RecNode(self.sub, vid, h1, rng)
            self.levels = 1 + max(
                [self.top.levels] + [b.levels for b in self.bottoms.values()]
            )
        else:
            self.cut = None
            self.top = None
            self.bottoms = {}
            self.levels = 0

    def stored_entries(self):
        total = self.rl.stored_entries
        if self.top is not None:
            total += self.top.stored_entries()
        for b in self.bottoms.values():
            total += b.stored_entries()
        return total

    def answer_seg(self, q, seg, out, counters):
        """Answer a descending path ``seg`` inside this node's tree."""
        node = self
        while True:
            sub = node.sub
            a, b = seg[0], seg[-1]
            if node.top is None or (sub.depth[a] == 0 and not sub.children[b]):
                # A complete root-to-leaf path is one exact query; at the
                # truncation level the query is extended to a full
                # root-to-leaf one and the answers outside seg are discarded.
                out.update(node.rl.locate_along(q, b, set(seg), counters))
                return
            cut = node.cut
            if sub.depth[b] <= cut:
                node = node.top
            elif sub.depth[a] >= cut:
                # Entirely below the cut: descend into the bottom tree
                # containing the segment (its root is on or above seg[0]).
                node = node.bottoms[node._bottom_root(a)]
            else:
                j = next(i for i, v in enumerate(seg) if sub.depth[v] == cut)
                node.top.answer_seg(q, seg[: j + 1], out, counters)
                seg = seg[j:]
                node = node.bottoms[seg[0]]

    def _bottom_root(self, v):
        sub = self.sub
        while sub.depth[v] > self.cut:
            v = sub.parent[v]
        return v


class MidTreeDS:
    __slots__ = ("tree", "h1", "h2", "forest", "forest_of", "levels",
                 "stored_entries")

    def __init__(self, tree: CatalogTree, h1: int, h2: int,
                 rng: random.Random | None = None):
        if not 1 <= h1 < h2:
            raise InvalidHeights(f"need 1 <= h1 < h2, got {h1}, {h2}")
        if rng is None:
            rng = random.Random(0)
        self.tree = tree
        self.h1 = h1
        self.h2 = h2
        roots = sorted(v for v, d in tree.depth.items() if d % h2 == 0)
        self.forest = {}
        for v in roots:
            limit = h2 - 1  # forest trees span depths [k*h2, (k+1)*h2 - 1]
            self.forest[v] = _RecNode(tree, v, h1, rng, max_rel_depth=limit)
        self.forest_of = {}
        for root in roots:
            for vid in self.forest[root].sub.vertices:
                self.forest_of[vid] = root
        self.levels = max(n.levels for n in self.forest.values())
        self.stored_entries = sum(n.stored_entries() for n in self.forest.values())

    def query(self, q: PathQuery, counters=None) -> QueryAnswer:
        t = self.tree
        path = q.path
        check_path(t, path)
        k = min(range(len(path)), key=lambda i: t.depth[path[i]])
        halves = [list(reversed(path[: k + 1])), list(path[k + 1:])]
        out = {}
        for half in halves:
            if not half:
                continue
            # Split where the half crosses a forest boundary.
            segs = [[half[0]]]
            for v in half[1:]:
                if t.depth[v] % self.h2 == 0:
                    segs.append([v])
                else:
                    segs[-1].append(v)
            for seg in segs:
                self.forest[self.forest_of[seg[0]]].answer_seg(q.q, seg, out, counters)
        return QueryAnswer(out)
