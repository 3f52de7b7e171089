"""Catalog graphs and trees: vertices carrying rectangle tilings.

All structures are immutable after construction.  Trees precompute parents,
depths, one depth-first visiting order and the left-to-right leaf order it
gives (children sorted by id), which everything downstream relies on for
reproducibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import UnknownVertex, VertexNotOnPath
from ..geometry import Point, Tiling


def regime_heights(n: int):
    """Path-length thresholds (h1, h2) between the short, mid and long
    regimes of a catalog with n rects: h1 = ceil(log n / 2) and
    h2 = ceil(log² n / 2), clamped so that 1 <= h1 < h2."""
    logn = math.log2(max(2, n))
    h1 = max(1, math.ceil(logn / 2))
    return h1, max(h1 + 1, math.ceil(logn * logn / 2))


@dataclass(frozen=True)
class CatalogVertex:
    id: int
    tiling: Tiling
    adjacency: tuple


def check_catalog(vertices):
    """Raise ValueError unless every neighbour exists and is listed once,
    adjacency is symmetric and all tilings share one bbox."""
    adjacency = {vid: set(v.adjacency) for vid, v in vertices.items()}
    for vid, nbrs in adjacency.items():
        listed = vertices[vid].adjacency
        if len(nbrs) < len(listed):
            u = next(u for u in listed if listed.count(u) > 1)
            raise ValueError(f"vertex {vid} lists neighbour {u} more than once")
        for u in nbrs:
            if u not in adjacency:
                raise ValueError(f"vertex {vid} lists unknown neighbour {u}")
            if vid not in adjacency[u]:
                raise ValueError(f"vertex {vid} lists {u}, which does not list it")
    bboxes = {v.tiling.bbox.key() for v in vertices.values()}
    if len(bboxes) > 1:
        raise ValueError(f"vertex tilings have {len(bboxes)} different bboxes")


class CatalogTree:
    __slots__ = ("vertices", "root", "parent", "children", "depth", "height",
                 "order", "leaves", "n")

    def __init__(self, vertices: dict, root: int):
        check_catalog(vertices)
        if root not in vertices:
            raise ValueError(f"root {root} is not a vertex")
        self.vertices = vertices
        self._walk(root, lambda u: [v for v in sorted(vertices[u].adjacency)
                                    if v != self.parent[u]])
        if len(self.order) != len(vertices):
            raise ValueError("catalog tree is not connected")
        self.n = sum(len(v.tiling) for v in vertices.values())

    def _walk(self, root, kids_of):
        """Depth-first walk from ``root``; ``kids_of(u)`` gives u's children
        in id order.  ``order`` lists the vertices as the stack pops them:
        parents first, the last child's subtree before the others', so its
        reverse lists the leaves left to right."""
        self.root = root
        self.parent = {root: None}
        self.depth = {root: 0}
        self.children = {}
        self.order = []
        stack = [root]
        while stack:
            u = stack.pop()
            self.order.append(u)
            kids = self.children[u] = kids_of(u)
            for v in kids:
                if v in self.parent:
                    raise ValueError("catalog tree contains a cycle")
                self.parent[v] = u
                self.depth[v] = self.depth[u] + 1
            stack.extend(kids)
        self.height = max(self.depth.values())
        self.leaves = [u for u in reversed(self.order) if not self.children[u]]

    @property
    def bbox(self):
        return self.vertices[self.root].tiling.bbox

    def path_between(self, u: int, v: int):
        """Ordered vertex list of the unique tree path from u to v."""
        check_vertices(self.vertices, (u, v))
        au, av = [], []
        uu, vv = u, v
        while self.depth[uu] > self.depth[vv]:
            au.append(uu)
            uu = self.parent[uu]
        while self.depth[vv] > self.depth[uu]:
            av.append(vv)
            vv = self.parent[vv]
        while uu != vv:
            au.append(uu)
            av.append(vv)
            uu = self.parent[uu]
            vv = self.parent[vv]
        return au + [uu] + list(reversed(av))

    def is_root_to_leaf(self, path):
        return (
            len(path) >= 1
            and path[0] == self.root
            and all(self.parent.get(path[i + 1]) == path[i] for i in range(len(path) - 1))
            and not self.children[path[-1]]
        )


class CatalogGraph:
    __slots__ = ("vertices", "degree", "n")

    def __init__(self, vertices: dict, degree: int):
        check_catalog(vertices)
        self.vertices = vertices
        self.degree = degree
        for v in vertices.values():
            if len(v.adjacency) > degree:
                raise ValueError(f"vertex {v.id} exceeds degree bound {degree}")
        if vertices and len(reachable(vertices, next(iter(vertices)), vertices)) < len(vertices):
            raise ValueError("catalog graph is not connected")
        self.n = sum(len(v.tiling) for v in vertices.values())

    @property
    def bbox(self):
        return next(iter(self.vertices.values())).tiling.bbox


def reachable(vertices, start, within):
    """The vertices of ``within`` that ``start`` reaches through them."""
    seen = {start}
    stack = [start]
    while stack:
        for v in vertices[stack.pop()].adjacency:
            if v in within and v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def check_vertices(vertices, vids):
    """Raise UnknownVertex unless every id in ``vids`` is a key of
    ``vertices``; callers check all ids before anything else, as the oracle
    does."""
    for v in vids:
        if v not in vertices:
            raise UnknownVertex(f"vertex {v}")


def check_path(catalog, path):
    """Raise unless every vertex of ``path`` is in ``catalog`` and each one is
    adjacent to the next."""
    vertices = catalog.vertices
    check_vertices(vertices, path)
    for a, b in zip(path, path[1:]):
        if b not in vertices[a].adjacency:
            raise VertexNotOnPath(f"{a} and {b} not adjacent")


@dataclass(frozen=True)
class PathQuery:
    q: Point
    path: tuple

    def __post_init__(self):
        if len(set(self.path)) != len(self.path):
            raise ValueError("query path repeats a vertex")


@dataclass(frozen=True)
class SubgraphQuery:
    q: Point
    vertex_set: frozenset


class QueryAnswer:
    """Per-vertex containing-rect ids."""

    __slots__ = ("by_vertex",)

    def __init__(self, by_vertex: dict):
        self.by_vertex = dict(by_vertex)

    def __eq__(self, other):
        return isinstance(other, QueryAnswer) and self.by_vertex == other.by_vertex

    def __repr__(self):
        return f"QueryAnswer({self.by_vertex!r})"


def assign_z_ranges(t: CatalogTree) -> dict:
    """Leaf i (left to right, from 0) gets [i, i+1); internal vertices the
    union of their children's ranges; the root [0, #leaves)."""
    z = {leaf: (i, i + 1) for i, leaf in enumerate(t.leaves)}
    # Children precede parents, and list left to right, in reversed order.
    for u in reversed(t.order):
        kids = t.children[u]
        if kids:
            z[u] = (z[kids[0]][0], z[kids[-1]][1])
    return z


def longest_path(t: CatalogTree) -> int:
    """Number of vertices on the tree's longest simple path.

    One pass, children before parents: a vertex's height (vertices on its
    longest downward path) is one more than its tallest child's, and the
    longest path through it as its top vertex joins its two tallest
    children's downward paths."""
    height = {}
    best = 1
    for u in reversed(t.order):
        h1 = h2 = 0
        for c in t.children[u]:
            h = height[c]
            if h > h1:
                h1, h2 = h, h1
            elif h > h2:
                h2 = h
        height[u] = h1 + 1
        best = max(best, h1 + h2 + 1)
    return best


def heavy_path_decompose(t: CatalogTree):
    """Classical heavy-path decomposition.

    Heavy child = largest subtree, ties to the lower vertex id.  Returns
    vertex-disjoint root-to-descendant paths covering every vertex; any
    root-to-leaf walk meets at most ceil(log2 |V|) + 1 of them.
    """
    size = {}
    for u in reversed(t.order):
        size[u] = 1 + sum(size[c] for c in t.children[u])
    paths = []
    head_stack = [t.root]
    while head_stack:
        head = head_stack.pop()
        path = [head]
        u = head
        while t.children[u]:
            kids = sorted(t.children[u], key=lambda c: (-size[c], c))
            heavy = kids[0]
            for light in kids[1:]:
                head_stack.append(light)
            path.append(heavy)
            u = heavy
        paths.append(path)
    return paths
