"""Query structures for degree-bounded catalog graphs.

Path queries work directly on the graph with the short-path chunking scheme
(per-vertex cuttings plus one stabbing structure per chunk of at most L
consecutive path vertices, built lazily).  Subgraph queries are reduced to
path queries: every vertex stands for 2d mutually-adjacent copies (numbered
by ``copy_ids``), and a DFS walk of a spanning tree of the query's vertex
set becomes a simple path over distinct copies.  Only each vertex's
designated copy 0 is cut and indexed, so only it contributes an answer; the
other copies own no cells and only carry the walk.  The expanded copy graph
itself (``graph_to_path_catalog``) is never built by a query structure.
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


def copy_ids(g: CatalogGraph) -> dict:
    """Vertex -> the ids of its 2d copies, numbered consecutively in vertex
    id order; copy 0 is the designated one."""
    k = 2 * max(2, g.degree)
    return {v: range(k * i, k * i + k) for i, v in enumerate(sorted(g.vertices))}


def graph_to_path_catalog(g: CatalogGraph):
    """Expand every vertex into its ``copy_ids`` copies: copies of one vertex
    form a clique, copies of adjacent vertices are all adjacent, and every
    copy shares its vertex's tiling."""
    d = max(2, g.degree)
    copy_map = copy_ids(g)
    vertices = {}
    for v, own in copy_map.items():
        adj_other = tuple(c for u in g.vertices[v].adjacency for c in copy_map[u])
        for cid in own:
            adjacency = tuple(c for c in own if c != cid) + adj_other
            vertices[cid] = CatalogVertex(cid, g.vertices[v].tiling, adjacency)
    g2 = CatalogGraph(vertices, degree=(2 * d - 1) + 2 * d * d)
    return g2, copy_map


def subgraph_to_walk(g: CatalogGraph, query: SubgraphQuery, copy_map) -> PathQuery:
    """The DFS walk of a spanning tree of the query's vertex set, from its
    least vertex and taking neighbours in adjacency order, lifted to a simple
    path over copies: each visit of a vertex uses its next unused copy, so
    the first visit uses copy 0.  A vertex is visited once more after each of
    its tree children, at most d + 1 < 2d times in all."""
    vs = query.vertex_set
    check_vertices(g.vertices, vs)
    if not vs:
        return PathQuery(query.q, ())
    start = min(vs)
    used = {start: 1}  # vertex -> copies of it in the path so far
    path = [copy_map[start][0]]
    stack = [(start, iter(g.vertices[start].adjacency))]
    while stack:
        for w in stack[-1][1]:
            if w in vs and w not in used:
                used[w] = 1
                path.append(copy_map[w][0])
                stack.append((w, iter(g.vertices[w].adjacency)))
                break
        else:
            stack.pop()
            if stack:
                u = stack[-1][0]
                path.append(copy_map[u][used[u]])
                used[u] += 1
    if len(used) != len(vs):
        raise DisconnectedSubgraph(f"{sorted(vs - used.keys())} unreachable")
    return PathQuery(query.q, tuple(path))


class GraphDS(ChunkedStabDS):
    __slots__ = ("g", "copy_map")

    def __init__(self, g: CatalogGraph, rng: random.Random | None = None):
        if rng is None:
            rng = random.Random(0)
        d = max(2, g.degree)
        self.g = g
        self.copy_map = copy_ids(g)
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
