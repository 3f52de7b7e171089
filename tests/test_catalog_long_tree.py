import math
import random

import pytest

from ofc2d.catalog.long_path import LongPathDS
from ofc2d.catalog.model import PathQuery, longest_path, regime_heights
from ofc2d.catalog.tree_ds import TreeDS
from ofc2d.counters import WorkCounters
from ofc2d.errors import InvalidParameter, Ofc2dError, UnknownVertex, VertexNotOnPath
from ofc2d.gen import random_point, random_tree_catalog
from ofc2d.oracle import oracle_query


def tall_catalog(seed, n_vertices=90, total=1024, height=None):
    rng = random.Random(seed)
    logn = math.log2(total)
    if height is None:
        height = math.floor(logn * logn / 2) + 4
    assert height <= n_vertices - 1
    return random_tree_catalog(n_vertices, total, height, rng), rng


def long_paths(cat, rng, min_len, count):
    vids = list(cat.vertices)
    out = []
    tries = 0
    while len(out) < count and tries < 20000:
        tries += 1
        u, v = rng.choice(vids), rng.choice(vids)
        p = cat.path_between(u, v)
        if len(p) > min_len:
            out.append(tuple(p))
    return out


def test_single_heavy_path_query():
    rng = random.Random(1)
    cat = random_tree_catalog(30, 128, 29, rng)
    ds = LongPathDS(cat)
    assert len(ds.paths) == 1
    path = tuple(range(30))
    q = PathQuery(random_point(cat.bbox, rng), path)
    c = WorkCounters()
    ans = ds.query(q, c)
    assert ans == oracle_query(cat, q.q, path)
    assert c.structures_queried == 1


def test_long_queries_match_oracle_with_bounds():
    cat, rng = tall_catalog(3)
    ds = LongPathDS(cat)
    logn = math.ceil(math.log2(cat.n))
    for path in long_paths(cat, rng, regime_heights(cat.n)[1], 50):
        q = PathQuery(random_point(cat.bbox, rng), path)
        c = WorkCounters()
        assert ds.query(q, c) == oracle_query(cat, q.q, path)
        assert c.structures_queried <= 2 * (logn + 1)


def test_root_to_leaf_heavy_path_bound():
    cat, rng = tall_catalog(4)
    ds = LongPathDS(cat)
    logn = math.ceil(math.log2(cat.n))
    deepest = max(cat.leaves, key=lambda v: cat.depth[v])
    path = tuple(cat.path_between(cat.root, deepest))
    p = random_point(cat.bbox, rng)
    c = WorkCounters()
    ans = ds.query(PathQuery(p, path), c)
    assert ans == oracle_query(cat, p, path)
    assert c.structures_queried <= logn + 1


def test_long_rejects_non_walks():
    cat, rng = tall_catalog(8)
    ds = LongPathDS(cat)
    assert len(ds.paths) > 1
    p = next(p for p in ds.paths if len(p) >= 3)
    q = random_point(cat.bbox, rng)
    # Skips p[1] inside one heavy path.
    with pytest.raises(VertexNotOnPath):
        ds.query(PathQuery(q, (p[0], p[2])))
    # Steps from one heavy path to a vertex of another that is not adjacent.
    a = ds.paths[0][0]
    b = next(v for other in ds.paths[1:] for v in other
             if v not in cat.vertices[a].adjacency)
    with pytest.raises(VertexNotOnPath):
        ds.query(PathQuery(q, (a, b)))


def test_dispatcher_all_regimes_match_oracle():
    cat, rng = tall_catalog(5)
    ds = TreeDS(cat, rng=rng)
    vids = list(cat.vertices)
    for _ in range(120):
        u, v = rng.choice(vids), rng.choice(vids)
        path = tuple(cat.path_between(u, v))
        q = PathQuery(random_point(cat.bbox, rng), path)
        assert ds.query(q) == oracle_query(cat, q.q, path)


def test_dispatcher_threshold_consistency():
    cat, rng = tall_catalog(6)
    ds = TreeDS(cat, rng=rng)
    vids = list(cat.vertices)
    checked = 0
    for _ in range(4000):
        u, v = rng.choice(vids), rng.choice(vids)
        path = tuple(cat.path_between(u, v))
        L = len(path)
        near = any(abs(L - t) <= 1 for t in (ds.t1, ds.t2))
        if not near:
            continue
        q = PathQuery(random_point(cat.bbox, rng), path)
        want = oracle_query(cat, q.q, path)
        if abs(L - ds.t1) <= 1:
            assert ds.short.query(q) == want
            assert ds.mid.query(q) == want
            checked += 1
        if abs(L - ds.t2) <= 1:
            assert ds.mid.query(q) == want
            assert ds.long.query(q) == want
            checked += 1
    assert checked > 5


def test_tree_without_long_paths_builds_no_long_stores():
    rng = random.Random(11)
    cat = random_tree_catalog(64, 2 ** 10, 24, rng)
    ds = TreeDS(cat, rng=rng)
    assert longest_path(cat) <= ds.t2
    assert ds.long.paths == [] and ds.long.structures == []
    assert ds.long.stored_entries == 0
    vids = list(cat.vertices)
    for _ in range(400):
        path = tuple(cat.path_between(rng.choice(vids), rng.choice(vids)))
        assert ds.regime(len(path)) != "long"
        q = PathQuery(random_point(cat.bbox, rng), path)
        assert ds.query(q) == oracle_query(cat, q.q, path)
    with pytest.raises(InvalidParameter) as e:
        ds.long.query(q)
    assert isinstance(e.value, Ofc2dError)
    # The path is checked first, as when the stores are built.
    with pytest.raises(UnknownVertex):
        ds.long.query(PathQuery(q.q, (max(vids) + 1,)))


def test_long_min_len_keeps_stores_of_trees_with_long_paths():
    cat, _ = tall_catalog(3)
    t2 = regime_heights(cat.n)[1]
    assert longest_path(cat) > t2
    full = LongPathDS(cat)
    assert LongPathDS(cat, t2 + 1).stored_entries == full.stored_entries > 0
    assert LongPathDS(cat, longest_path(cat) + 1).stored_entries == 0


@pytest.mark.parametrize("extra", [0, 1])
def test_long_stores_built_from_one_vertex_past_t2(extra):
    rng = random.Random(12)
    t2 = regime_heights(2 ** 10)[1]
    cat = random_tree_catalog(t2 + extra, 2 ** 10, t2 + extra - 1, rng)
    ds = TreeDS(cat, rng=rng)
    assert ds.t2 == t2
    assert bool(ds.long.structures) == bool(extra)
    path = tuple(range(len(cat.vertices)))
    assert ds.regime(len(path)) == ("long" if extra else "mid")
    q = PathQuery(random_point(cat.bbox, rng), path)
    assert ds.query(q) == oracle_query(cat, q.q, path)


def test_dispatcher_single_vertex():
    cat, rng = tall_catalog(7)
    ds = TreeDS(cat, rng=rng)
    q = PathQuery(random_point(cat.bbox, rng), (cat.root,))
    assert ds.regime(1) == "short"
    assert ds.query(q) == oracle_query(cat, q.q, [cat.root])


@pytest.mark.parametrize("n_vertices,total", [(1, 1), (1, 2), (2, 2)])
def test_dispatcher_tiny_catalogs(n_vertices, total):
    rng = random.Random(total)
    cat = random_tree_catalog(n_vertices, total, n_vertices - 1, rng)
    ds = TreeDS(cat, rng=rng)
    for u in cat.vertices:
        for v in cat.vertices:
            path = tuple(cat.path_between(u, v))
            q = PathQuery(random_point(cat.bbox, rng), path)
            assert ds.query(q) == oracle_query(cat, q.q, path)
