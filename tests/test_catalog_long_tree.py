import functools
import math
import random
from itertools import groupby

import pytest
from hypothesis import given, settings, strategies as st

from ofc2d.catalog.long_path import LongPathDS
from ofc2d.catalog.model import PathQuery, check_path, longest_path, regime_heights
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


@functools.cache
def tall_setup(seed):
    """A tall catalog, its ``TreeDS`` and 40 of its paths longer than t2."""
    cat, rng = tall_catalog(seed)
    ds = TreeDS(cat, rng=rng)
    return cat, ds, long_paths(cat, rng, ds.t2, 40)


def outcome(query):
    """``query()``'s answer, or the type and message of the error it raised."""
    try:
        return query()
    except Ofc2dError as e:
        return type(e), str(e)


CORRUPTIONS = ("none", "drop inner", "swap neighbours", "splice", "unknown vertex",
               "reverse one run")


@st.composite
def corrupted_paths(draw, cat, ds, paths):
    """A long path of ``paths`` (a walk from ``path_between``), corrupted by
    one of ``CORRUPTIONS`` or left as it is."""
    path = draw(st.sampled_from(paths))
    how = draw(st.sampled_from(CORRUPTIONS))
    i = draw(st.integers(1, len(path) - 2))
    if how == "drop inner":
        return how, path[:i] + path[i + 1:]
    if how == "swap neighbours":
        return how, path[:i] + (path[i + 1], path[i]) + path[i + 2:]
    if how == "splice":
        other = draw(st.sampled_from([p for p in paths if p != path]))
        j = draw(st.integers(1, len(other) - 1))
        # Drop the vertices the two parts share, as a query path repeats none.
        return how, tuple(dict.fromkeys(path[:i] + other[j:]))
    if how == "unknown vertex":
        return how, path[:i] + (max(cat.vertices) + 1,) + path[i + 1:]
    if how == "reverse one run":
        runs = [tuple(r) for _, r in groupby(path, ds.long.path_of.__getitem__)]
        k = draw(st.sampled_from([k for k, r in enumerate(runs) if len(r) > 1]))
        runs[k] = runs[k][::-1]
        return how, sum(runs, ())
    return how, path


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_long_queries_check_paths_like_check_path(data):
    """Valid long paths answer as the oracle does; a corrupted one makes
    ``LongPathDS.query``, and ``TreeDS.query`` when it routes it to the long
    regime, raise the error of ``check_path``, with the same message."""
    cat, ds, paths = tall_setup(data.draw(st.sampled_from((3, 5, 8))))
    how, path = data.draw(corrupted_paths(cat, ds, paths))
    q = PathQuery(random_point(cat.bbox, random.Random(data.draw(st.integers(0, 2 ** 32)))),
                  path)
    want = outcome(lambda: check_path(cat, path))
    if how == "none":
        assert want is None
    if want is None:
        want = oracle_query(cat, q.q, path)
    assert outcome(lambda: ds.long.query(q)) == want
    if ds.regime(len(path)) == "long":
        assert outcome(lambda: ds.query(q)) == want


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
