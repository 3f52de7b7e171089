"""Catalog graphs and trees: vertices carrying rectangle tilings.

All structures are immutable after construction.  Trees precompute parents,
depths and a deterministic left-to-right leaf order (children sorted by id),
which everything downstream relies on for reproducibility.
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
    """Raise ValueError unless every neighbour exists, adjacency is symmetric
    and all tilings share one bbox."""
    adjacency = {vid: set(v.adjacency) for vid, v in vertices.items()}
    for vid, nbrs in adjacency.items():
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
                 "leaves", "n")

    def __init__(self, vertices: dict, root: int):
        check_catalog(vertices)
        self.vertices = vertices
        self.root = root
        self.parent = {root: None}
        self.children = {}
        self.depth = {root: 0}
        order = [root]
        stack = [root]
        while stack:
            u = stack.pop()
            kids = [v for v in sorted(vertices[u].adjacency) if v != self.parent[u]]
            self.children[u] = kids
            for v in kids:
                if v in self.parent:
                    raise ValueError("catalog tree contains a cycle")
                self.parent[v] = u
                self.depth[v] = self.depth[u] + 1
                order.append(v)
                stack.append(v)
        if len(order) != len(vertices):
            raise ValueError("catalog tree is not connected")
        self._finish()

    def _finish(self):
        """Height, left-to-right leaves and rect count, once the walk has
        filled vertices, children and depth."""
        self.height = max(self.depth.values())
        self.leaves = self._ordered_leaves()
        self.n = sum(len(v.tiling) for v in self.vertices.values())

    def _ordered_leaves(self):
        out = []
        stack = [self.root]
        while stack:
            u = stack.pop()
            kids = self.children[u]
            if not kids:
                out.append(u)
            else:
                stack.extend(reversed(kids))
        return out

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
        if vertices and not self._connected():
            raise ValueError("catalog graph is not connected")
        self.n = sum(len(v.tiling) for v in vertices.values())

    def _connected(self):
        start = next(iter(self.vertices))
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in self.vertices[u].adjacency:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == len(self.vertices)

    @property
    def bbox(self):
        return next(iter(self.vertices.values())).tiling.bbox


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
    """Leaf i (left to right) gets [i-1, i); internal vertices the union of
    their children's ranges; the root [0, #leaves)."""
    z = {}
    for i, leaf in enumerate(t.leaves):
        z[leaf] = (i, i + 1)
    # Children precede parents in reverse traversal order.
    order = [t.root]
    for u in order:
        order.extend(t.children[u])
    for u in reversed(order):
        if t.children[u]:
            lo = min(z[c][0] for c in t.children[u])
            hi = max(z[c][1] for c in t.children[u])
            z[u] = (lo, hi)
    return z


def heavy_path_decompose(t: CatalogTree):
    """Classical heavy-path decomposition.

    Heavy child = largest subtree, ties to the lower vertex id.  Returns
    vertex-disjoint root-to-descendant paths covering every vertex; any
    root-to-leaf walk meets at most ceil(log2 |V|) + 1 of them.
    """
    size = {}
    order = [t.root]
    for u in order:
        order.extend(t.children[u])
    for u in reversed(order):
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
