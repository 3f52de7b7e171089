"""Every catalog structure against the linear-scan oracle: same answers, or
the same error type, on small random catalogs and on boundary points."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ofc2d.catalog.boot import BootstrappedDS
from ofc2d.catalog.graph_ds import GraphDS
from ofc2d.catalog.long_path import LongPathDS
from ofc2d.catalog.mid_tree import MidTreeDS, RootLeafDS
from ofc2d.catalog.model import (
    CatalogGraph,
    CatalogTree,
    CatalogVertex,
    PathQuery,
    SubgraphQuery,
    regime_heights,
)
from ofc2d.catalog.path_ds import build_path_structure
from ofc2d.catalog.short_tree import ShortTreeDS
from ofc2d.catalog.tree_ds import TreeDS
from ofc2d.errors import Ofc2dError, PointOutsideBBox
from ofc2d.gen import random_path_catalog
from ofc2d.geometry import Point, Rect, Tiling
from ofc2d.oracle import oracle_query

TREE_KINDS = {
    "tree": lambda cat, rng: TreeDS(cat, rng=rng),
    "short-tree": lambda cat, rng: ShortTreeDS(cat, rng),
    "mid-tree": lambda cat, rng: MidTreeDS(cat, *regime_heights(cat.n), rng),
    "root-leaf": lambda cat, rng: RootLeafDS(cat, rng),
    "bootstrapped": lambda cat, rng: BootstrappedDS(cat, 1, rng),
    "long-path": lambda cat, rng: LongPathDS(cat),
    "path": lambda cat, rng: build_path_structure(cat),
}


def vertices_of(q):
    return sorted(q.vertex_set) if isinstance(q, SubgraphQuery) else q.path


def outcome(fn):
    try:
        return fn()
    except Ofc2dError as e:
        return type(e)


@pytest.mark.parametrize("kind", [*TREE_KINDS, "graph"])
def test_point_outside_bbox_raises(kind):
    rng = random.Random(3)
    cat = random_path_catalog(8, 256, rng)
    if kind == "graph":
        cat = CatalogGraph(dict(cat.vertices), 2)
        ds = GraphDS(cat, rng)
    else:
        ds = TREE_KINDS[kind](cat, rng)
    p = Point(cat.bbox.xhi + 5, cat.bbox.ylo)
    path = tuple(range(8))  # the whole chain, root to leaf
    with pytest.raises(PointOutsideBBox):
        oracle_query(cat, p, path)
    with pytest.raises(PointOutsideBBox):
        ds.query(PathQuery(p, path))


SIDE = 8
BBOX = Rect(-1, 0, SIDE, 0, SIDE)


@st.composite
def tilings(draw, start_id):
    """Guillotine tiling of BBOX with 1-6 rects numbered from ``start_id``."""
    cells = [(0, SIDE, 0, SIDE)]
    for _ in range(draw(st.integers(0, 5))):
        i = draw(st.integers(0, len(cells) - 1))
        xlo, xhi, ylo, yhi = cells[i]
        if draw(st.booleans()):
            c = draw(st.integers(xlo + 1, xhi - 1)) if xhi - xlo > 1 else None
            parts = [(xlo, c, ylo, yhi), (c, xhi, ylo, yhi)]
        else:
            c = draw(st.integers(ylo + 1, yhi - 1)) if yhi - ylo > 1 else None
            parts = [(xlo, xhi, ylo, c), (xlo, xhi, c, yhi)]
        if c is not None:
            cells[i:i + 1] = parts
    return Tiling(BBOX, [Rect(start_id + j, *c) for j, c in enumerate(cells)])


@st.composite
def catalogs(draw, graph):
    """A tree or a degree-3 graph on 1-12 vertices; rect ids restart at 0 in
    every vertex when ``reuse`` is drawn."""
    n = draw(st.integers(1, 12))
    chain = draw(st.booleans())
    adj = {v: set() for v in range(n)}
    for v in range(1, n):
        free = [u for u in range(v) if len(adj[u]) < 3] if graph else range(v)
        u = v - 1 if chain else draw(st.sampled_from(free))
        adj[u].add(v)
        adj[v].add(u)
    if graph:
        for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                            st.integers(0, n - 1)), max_size=4)):
            if u != v and len(adj[u]) < 3 and len(adj[v]) < 3:
                adj[u].add(v)
                adj[v].add(u)
    reuse = draw(st.booleans())
    vertices = {v: CatalogVertex(v, draw(tilings(0 if reuse else 10 * v)),
                                 tuple(sorted(adj[v])))
                for v in range(n)}
    return CatalogGraph(vertices, 3) if graph else CatalogTree(vertices, 0)


@st.composite
def points(draw, cat):
    """A rect corner (xhi and yhi corners on the bbox edge lie outside it) or
    any point of a box one unit wider than the bbox on every side."""
    corners = [(x, y) for v in cat.vertices.values() for r in v.tiling.rects
               for x in (r.xlo, r.xhi) for y in (r.ylo, r.yhi)]
    xy = draw(st.one_of(st.sampled_from(corners),
                        st.tuples(st.integers(-1, SIDE), st.integers(-1, SIDE))))
    return Point(*xy)


@st.composite
def tree_cases(draw):
    cat = draw(catalogs(graph=False))
    vids = st.sampled_from(sorted(cat.vertices))
    queries = []
    for _ in range(draw(st.integers(1, 4))):
        path = cat.path_between(draw(vids), draw(vids))
        queries.append(PathQuery(draw(points(cat)), tuple(path)))
    return cat, queries


@st.composite
def graph_cases(draw):
    cat = draw(catalogs(graph=True))
    queries = []
    for _ in range(draw(st.integers(1, 4))):
        walk = [draw(st.sampled_from(sorted(cat.vertices)))]
        for _ in range(draw(st.integers(0, 5))):
            nxt = sorted(set(cat.vertices[walk[-1]].adjacency) - set(walk))
            if not nxt:
                break
            walk.append(draw(st.sampled_from(nxt)))
        p = draw(points(cat))
        if draw(st.booleans()):
            queries.append(SubgraphQuery(p, frozenset(walk)))
        else:
            queries.append(PathQuery(p, tuple(walk)))
    return cat, queries


def agrees(cat, ds, q):
    return outcome(lambda: ds.query(q)) == \
        outcome(lambda: oracle_query(cat, q.q, vertices_of(q)))


CHECKS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@CHECKS
@given(tree_cases())
def test_tree_structures_match_oracle(case):
    cat, queries = case
    is_chain = all(len(kids) <= 1 for kids in cat.children.values())
    for kind, build in TREE_KINDS.items():
        if kind == "path" and not is_chain:
            continue
        ds = build(cat, random.Random(0))
        for q in queries:
            if kind == "root-leaf":
                leaf = cat.path_between(cat.root, q.path[-1])
                while cat.children[leaf[-1]]:
                    leaf.append(cat.children[leaf[-1]][0])
                q = PathQuery(q.q, tuple(leaf))
            assert agrees(cat, ds, q), (kind, q)


@CHECKS
@given(graph_cases())
def test_graph_structure_matches_oracle(case):
    cat, queries = case
    ds = GraphDS(cat, random.Random(0))
    for q in queries:
        assert agrees(cat, ds, q), q
