"""Every catalog structure against the linear-scan oracle: same answers, or
the same error type, on small random catalogs and on boundary points."""

import gc
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
    QueryAnswer,
    SubgraphQuery,
    regime_heights,
)
from ofc2d.catalog.path_ds import build_path_structure
from ofc2d.catalog.short_tree import ShortTreeDS
from ofc2d.catalog.tree_ds import TreeDS
from ofc2d.counters import WorkCounters
from ofc2d.errors import NotRootToLeaf, Ofc2dError, PointOutsideBBox, UnknownVertex
from ofc2d.gen import random_path_catalog, random_point
from ofc2d.geometry import Point, Rect
from ofc2d.oracle import oracle_query

from helpers import guillotine_tilings

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


def chain_case(kind):
    """An 8-vertex chain catalog (a graph for ``graph``) and its structure."""
    rng = random.Random(3)
    cat = random_path_catalog(8, 256, rng)
    if kind == "graph":
        cat = CatalogGraph(dict(cat.vertices), 2)
        return cat, GraphDS(cat, rng)
    return cat, TREE_KINDS[kind](cat, rng)


@pytest.mark.parametrize("kind", [*TREE_KINDS, "graph"])
def test_point_outside_bbox_raises(kind):
    cat, ds = chain_case(kind)
    p = Point(cat.bbox.xhi + 5, cat.bbox.ylo)
    path = tuple(range(8))  # the whole chain, root to leaf
    with pytest.raises(PointOutsideBBox):
        oracle_query(cat, p, path)
    with pytest.raises(PointOutsideBBox):
        ds.query(PathQuery(p, path))


@pytest.mark.parametrize("kind", [*TREE_KINDS, "graph"])
def test_unknown_vertex_raises_first(kind):
    """An unknown vertex raises UnknownVertex before any other fault is
    seen: a point outside the bbox, a path off the catalog path, or a path
    that is not root to leaf."""
    cat, ds = chain_case(kind)
    bbox = cat.bbox
    for p in (Point(bbox.xlo, bbox.ylo), Point(bbox.xhi + 5, bbox.ylo)):
        for path in ((0, 99), (99,)):
            with pytest.raises(UnknownVertex):
                oracle_query(cat, p, path)
            with pytest.raises(UnknownVertex):
                ds.query(PathQuery(p, path))


@pytest.mark.parametrize("kind", [*TREE_KINDS, "graph"])
def test_empty_query_answers_empty(kind):
    """An empty path (or, on the graph, an empty vertex set) is answered
    with no vertices, as the oracle answers it, even for a point outside the
    bbox; root-leaf raises its typed error for any path not root to leaf."""
    cat, ds = chain_case(kind)
    bbox = cat.bbox
    for p in (Point(bbox.xlo, bbox.ylo), Point(bbox.xhi + 5, bbox.ylo)):
        assert oracle_query(cat, p, ()) == QueryAnswer({})
        if kind == "root-leaf":
            with pytest.raises(NotRootToLeaf):
                ds.query(PathQuery(p, ()))
            continue
        assert ds.query(PathQuery(p, ())) == QueryAnswer({})
        if kind == "graph":
            assert ds.query(SubgraphQuery(p, frozenset())) == QueryAnswer({})


@pytest.mark.parametrize("kind", [*TREE_KINDS, "graph"])
def test_warm_queries_leave_no_cyclic_garbage(kind):
    """Once lazy caches are filled, a query frees everything it made by
    reference counting: the collector finds nothing after a replay."""
    cat, ds = chain_case(kind)
    rng = random.Random(4)
    queries = []
    for _ in range(20):
        i, j = (0, 8) if kind == "root-leaf" else sorted(rng.sample(range(9), 2))
        q = PathQuery(random_point(cat.bbox, rng), tuple(range(i, j)))
        queries.append(q)
        if kind == "graph":
            queries.append(SubgraphQuery(q.q, frozenset(q.path)))
    for q in queries:
        ds.query(q, WorkCounters())
    gc.collect()
    gc.disable()
    try:
        for q in queries:
            ds.query(q, WorkCounters())
        assert gc.collect() == 0
    finally:
        gc.enable()


SIDE = 8
BBOX = Rect(-1, 0, SIDE, 0, SIDE)
UNKNOWN = 99  # no drawn catalog has that many vertices


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
    vertices = {v: CatalogVertex(v, draw(guillotine_tilings(BBOX, 5,
                                                            0 if reuse else 10 * v)),
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


def with_unknown(draw, path):
    """``path``, or one time in four ``path`` with UNKNOWN inserted at a
    drawn position."""
    if draw(st.integers(0, 3)):
        return tuple(path)
    i = draw(st.integers(0, len(path)))
    return (*path[:i], UNKNOWN, *path[i:])


@st.composite
def tree_cases(draw):
    cat = draw(catalogs(graph=False))
    vids = st.sampled_from(sorted(cat.vertices))
    queries = []
    for _ in range(draw(st.integers(1, 4))):
        empty = not draw(st.integers(0, 7))  # one path in eight
        path = () if empty else cat.path_between(draw(vids), draw(vids))
        queries.append(PathQuery(draw(points(cat)), with_unknown(draw, path)))
    return cat, queries


@st.composite
def graph_cases(draw):
    cat = draw(catalogs(graph=True))
    queries = []
    for _ in range(draw(st.integers(1, 4))):
        walk = []
        if draw(st.integers(0, 7)):  # one walk in eight is empty
            walk.append(draw(st.sampled_from(sorted(cat.vertices))))
            for _ in range(draw(st.integers(0, 5))):
                nxt = sorted(set(cat.vertices[walk[-1]].adjacency) - set(walk))
                if not nxt:
                    break
                walk.append(draw(st.sampled_from(nxt)))
        p = draw(points(cat))
        walk = with_unknown(draw, walk)
        if draw(st.booleans()):
            queries.append(SubgraphQuery(p, frozenset(walk)))
        else:
            queries.append(PathQuery(p, walk))
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
                known = [v for v in q.path if v != UNKNOWN] or [cat.root]
                leaf = cat.path_between(cat.root, known[-1])
                while cat.children[leaf[-1]]:
                    leaf.append(cat.children[leaf[-1]][0])
                if UNKNOWN in q.path:
                    leaf.insert(min(q.path.index(UNKNOWN), len(leaf)), UNKNOWN)
                q = PathQuery(q.q, tuple(leaf))
            assert agrees(cat, ds, q), (kind, q)


@CHECKS
@given(graph_cases())
def test_graph_structure_matches_oracle(case):
    cat, queries = case
    ds = GraphDS(cat, random.Random(0))
    for q in queries:
        assert agrees(cat, ds, q), q
