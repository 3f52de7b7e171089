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
truncation level, whose stab hits outside the path are skipped unlocated).
Each path vertex is located exactly once.

One MidTreeDS build makes one cutting per (vertex, rho) pair: every RootLeafDS
that asks for a pair already built wraps its cells and conflict lists in a
Cutting of its own, which builds and caches its own conflict indexes.
"""

from __future__ import annotations

import math
import random

from ..cutting import Cutting, cutting_build
from ..errors import InvalidParameter, NotRootToLeaf, PointOutsideBBox
from ..stabbing import Stab3D
from .model import (CatalogTree, PathQuery, QueryAnswer, assign_z_ranges, check_path,
                    check_vertices)


class SubTree(CatalogTree):
    """A connected slice of a catalog tree: the subtree under ``root``, cut
    below relative depth ``max_rel_depth`` when one is given."""

    __slots__ = ()

    def __init__(self, tree, root, max_rel_depth=None):
        self._walk(root, lambda u: [] if self.depth[u] == max_rel_depth
                   else tree.children[u])
        self.vertices = {u: tree.vertices[u] for u in self.order}
        self.n = sum(len(v.tiling) for v in self.vertices.values())


class RootLeafDS:
    __slots__ = ("tree", "r", "H", "cuttings", "z", "stab", "stored_entries")

    def __init__(self, tree, rng: random.Random, shared=None):
        """``shared`` maps (vertex id, rho) to a cutting built earlier in the
        same build; pairs not in it are built with ``rng`` and added."""
        if shared is None:
            shared = {}
        n = max(2, tree.n)
        h = max(1, tree.height)
        logn = math.log2(n)
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
            made = shared.get((vid, rho))
            if made is None:
                cut = shared[vid, rho] = cutting_build(v.tiling, rho, rng)
            else:
                cut = Cutting(made.cells, made.conflicts, made.source, made.target)
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
        """Locate q at the ancestors of a leaf under ``end_vid`` that are in
        ``wanted``; the stab still reports (and counts) every ancestor, but
        the others are not located."""
        hits = self.stab.query(q, self.z[end_vid][0], counters)
        if counters is not None:
            counters.structures_queried += 1
        # The root's cells cover the bbox at every z, so only a point outside
        # it is in no box.
        if not hits:
            raise PointOutsideBBox(f"{q} outside the catalog bbox")
        return {vid: cut.locate(ci, q, counters)
                for vid, cut, ci in hits if vid in wanted}


class _RecNode:
    """One node of the halving hierarchy over a forest tree."""

    __slots__ = ("sub", "rl", "cut", "top", "bottoms", "levels")

    def __init__(self, tree, root, h1, rng, shared, max_rel_depth=None):
        self.sub = SubTree(tree, root, max_rel_depth)
        self.rl = RootLeafDS(self.sub, rng, shared)
        if self.sub.height > h1:
            self.cut = math.ceil(self.sub.height / 2)
            self.top = _RecNode(self.sub, root, h1, rng, shared, max_rel_depth=self.cut)
            self.bottoms = {}
            for vid, d in self.sub.depth.items():
                if d == self.cut and self.sub.children[vid]:
                    self.bottoms[vid] = _RecNode(self.sub, vid, h1, rng, shared)
            self.levels = 1 + max(
                [self.top.levels] + [b.levels for b in self.bottoms.values()]
            )
        else:
            self.cut = None
            self.top = None
            self.bottoms = {}
            self.levels = 0

    def walk(self):
        """This node and every node of the hierarchy below it."""
        yield self
        if self.top is not None:
            yield from self.top.walk()
        for b in self.bottoms.values():
            yield from b.walk()

    def answer_seg(self, q, seg, out, counters, skip=0):
        """Answer a descending path ``seg`` inside this node's tree, locating
        only ``seg[skip:]``: a split's bottom half starts at the cut vertex,
        which its top half has located already."""
        node = self
        while True:
            sub = node.sub
            a, b = seg[0], seg[-1]
            if node.top is None or (sub.depth[a] == 0 and not sub.children[b]):
                # A complete root-to-leaf path is one exact query; at the
                # truncation level the query is extended to a full
                # root-to-leaf one and only the vertices of seg are located.
                out.update(node.rl.locate_along(q, b, set(seg[skip:]), counters))
                return
            cut = node.cut
            if sub.depth[b] <= cut:
                node = node.top
            elif sub.depth[a] >= cut:
                # Entirely below the cut: descend into the bottom tree
                # containing the segment (its root is on or above seg[0]).
                node = node.bottoms[node._bottom_root(a)]
            else:
                # seg descends one depth per vertex, so seg[j] is at the cut.
                j = cut - sub.depth[a]
                node.top.answer_seg(q, seg[: j + 1], out, counters, skip)
                seg = seg[j:]
                skip = 1
                node = node.bottoms[seg[0]]

    def _bottom_root(self, v):
        sub = self.sub
        while sub.depth[v] > self.cut:
            v = sub.parent[v]
        return v


class MidTreeDS:
    """``cuttings_built`` counts the distinct (vertex, rho) cuttings of the
    build and ``cuttings_used`` the vertex cuttings of all its RootLeafDS
    nodes, shared ones once per node; ``stored_entries`` counts each node's
    conflict lists, shared ones included."""

    __slots__ = ("tree", "h1", "h2", "forest", "forest_of", "levels",
                 "stored_entries", "cuttings_built", "cuttings_used")

    def __init__(self, tree: CatalogTree, h1: int, h2: int, rng: random.Random):
        if not 1 <= h1 < h2:
            raise InvalidParameter(f"need 1 <= h1 < h2, got {h1}, {h2}")
        self.tree = tree
        self.h1 = h1
        self.h2 = h2
        roots = sorted(v for v, d in tree.depth.items() if d % h2 == 0)
        self.forest = {}
        shared = {}
        for v in roots:
            limit = h2 - 1  # forest trees span depths [k*h2, (k+1)*h2 - 1]
            self.forest[v] = _RecNode(tree, v, h1, rng, shared, max_rel_depth=limit)
        self.forest_of = {}
        for root in roots:
            for vid in self.forest[root].sub.vertices:
                self.forest_of[vid] = root
        self.levels = max(n.levels for n in self.forest.values())
        rls = [node.rl for root in self.forest.values() for node in root.walk()]
        self.stored_entries = sum(rl.stored_entries for rl in rls)
        self.cuttings_built = len(shared)
        self.cuttings_used = sum(len(rl.cuttings) for rl in rls)

    def query(self, q: PathQuery, counters=None) -> QueryAnswer:
        t = self.tree
        path = q.path
        check_path(t, path)
        if not path:
            return QueryAnswer({})
        depths = list(map(t.depth.__getitem__, path))
        apex = min(depths)
        k = depths.index(apex)
        h2 = self.h2
        out = {}
        for half, d in ((path[k::-1], apex), (path[k + 1:], apex + 1)):
            if not half:
                continue
            # The half descends one depth per vertex from depth d, so it
            # crosses a forest boundary at every depth multiple of h2 below d.
            cuts = [0, *range(h2 - d % h2, len(half), h2), len(half)]
            for i, e in zip(cuts, cuts[1:]):
                seg = half[i:e]
                self.forest[self.forest_of[seg[0]]].answer_seg(q.q, seg, out, counters)
        return QueryAnswer(out)
