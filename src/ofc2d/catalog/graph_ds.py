"""Query structures for degree-bounded catalog graphs.

Path queries work directly on the graph with the short-path chunking scheme
(per-vertex cuttings plus one stabbing structure per chunk of at most L
consecutive path vertices, built lazily).  Subgraph queries are reduced to
path queries: every vertex is expanded into 2d mutually-adjacent copies, and
a DFS walk of the query subgraph's spanning tree becomes a simple path over
distinct copies.  Only each vertex's designated copy 0 is cut and indexed, so
only it contributes an answer; the other copies own no cells and only carry
the walk.
"""

from __future__ import annotations

import math
import random

from ..cutting import cutting_build
from ..errors import DisconnectedSubgraph
from .model import (
    CatalogGraph,
    CatalogVertex,
    PathQuery,
    QueryAnswer,
    SubgraphQuery,
    check_path,
    check_vertices,
)
from .short_tree import ChunkedStabDS


def graph_to_path_catalog(g: CatalogGraph):
    """Expand every vertex into 2d copies: copies of one vertex form a
    clique, copies of adjacent vertices are all adjacent, and every copy
    shares its vertex's tiling (copy 0 is the designated one)."""
    d = max(2, g.degree)
    ids = sorted(g.vertices)
    base = {v: 2 * d * i for i, v in enumerate(ids)}
    copy_map = {v: [base[v] + j for j in range(2 * d)] for v in ids}
    vertices = {}
    for v in ids:
        adj_own = copy_map[v]
        adj_other = [c for u in g.vertices[v].adjacency for c in copy_map[u]]
        for cid in adj_own:
            adjacency = tuple(c for c in adj_own if c != cid) + tuple(adj_other)
            vertices[cid] = CatalogVertex(cid, g.vertices[v].tiling, adjacency)
    g2 = CatalogGraph(vertices, degree=(2 * d - 1) + 2 * d * d)
    return g2, copy_map


def subgraph_to_walk(g: CatalogGraph, query: SubgraphQuery, copy_map) -> PathQuery:
    """DFS walk of a spanning tree of the query's vertex set, lifted to a
    simple path in the expanded graph via one fresh copy per revisit."""
    vs = set(query.vertex_set)
    check_vertices(g.vertices, vs)
    start = min(vs)
    seen = {start}
    tree_kids = {v: [] for v in vs}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in g.vertices[u].adjacency:
            if w in vs and w not in seen:
                seen.add(w)
                tree_kids[u].append(w)
                stack.append(w)
    if seen != vs:
        raise DisconnectedSubgraph(f"{sorted(vs - seen)} unreachable")
    walk = []
    def visit(u):
        walk.append(u)
        for w in tree_kids[u]:
            visit(w)
            walk.append(u)
    visit(start)
    used = {v: 0 for v in vs}
    path = []
    for v in walk:
        path.append(copy_map[v][used[v]])
        used[v] += 1
    return PathQuery(query.q, tuple(path))


class GraphDS(ChunkedStabDS):
    __slots__ = ("g", "expanded", "copy_map")

    def __init__(self, g: CatalogGraph, rng: random.Random | None = None):
        if rng is None:
            rng = random.Random(0)
        d = max(2, g.degree)
        self.g = g
        self.expanded, self.copy_map = graph_to_path_catalog(g)
        self._init_engine(g.n)
        # Cutting conflict budget r^(2 log d) per the generalized scheme; at
        # desk scale this usually degrades to one cell per vertex.
        strength = self.r ** (2 * math.log2(d))
        for vid, copies in self.copy_map.items():
            tiling = g.vertices[vid].tiling
            ni = len(tiling)
            rho = max(1, min(ni, math.ceil(ni / strength)))
            self._add_cutting(copies[0], cutting_build(tiling, rho, rng), vid)

    def query(self, q, counters=None) -> QueryAnswer:
        """Answer a SubgraphQuery through its walk over distinct copies, or a
        PathQuery over the graph through the designated copies."""
        if isinstance(q, SubgraphQuery):
            # Adjacency is symmetric, so consecutive walk copies are adjacent.
            path = subgraph_to_walk(self.g, q, self.copy_map).path
        else:
            check_path(self.g, q.path)
            path = tuple(self.copy_map[v][0] for v in q.path)
        return QueryAnswer(self._locate_chunks(q.q, path, counters))
