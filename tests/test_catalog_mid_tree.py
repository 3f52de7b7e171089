import math
import random

import pytest

from ofc2d.catalog.mid_tree import MidTreeDS, RootLeafDS
from ofc2d.catalog.model import PathQuery
from ofc2d.counters import WorkCounters
from ofc2d.errors import (
    InvalidHeights,
    NotRootToLeaf,
    PathOutOfRegime,
)
from ofc2d.gen import random_path_catalog, random_point, random_tree_catalog
from ofc2d.oracle import oracle_query


def test_rootleaf_root_only():
    rng = random.Random(1)
    cat = random_path_catalog(1, 32, rng)
    ds = RootLeafDS(cat, rng)
    q = PathQuery(random_point(cat.bbox, rng), (0,))
    assert ds.query(q) == oracle_query(cat, q.q, [0])


def test_rootleaf_parameter_formula():
    rng = random.Random(2)
    cat = random_tree_catalog(40, 1024, 9, rng)  # n=2^10, h=9
    ds = RootLeafDS(cat, rng)
    assert ds.r == 2 ** math.ceil(math.log2(1024) / math.sqrt(9))
    denom = max(1.0, math.log2(max(2.0, 1024 / ds.r)))
    assert ds.H == max(2, int(ds.r / denom))


def test_rootleaf_random_queries_match_oracle():
    rng = random.Random(3)
    cat = random_tree_catalog(60, 4096, 12, rng)  # h = ceil(log2 n)
    ds = RootLeafDS(cat, rng)
    leaves = cat.leaves
    for _ in range(100):
        leaf = rng.choice(leaves)
        path = tuple(cat.path_between(cat.root, leaf))
        q = PathQuery(random_point(cat.bbox, rng), path)
        c = WorkCounters()
        assert ds.query(q, c) == oracle_query(cat, q.q, path)
        assert c.structures_queried == 1
        assert c.cells_located == len(path)


def test_rootleaf_rejects_partial_path():
    rng = random.Random(4)
    cat = random_tree_catalog(20, 256, 6, rng)
    ds = RootLeafDS(cat, rng)
    p = random_point(cat.bbox, rng)
    leaf = cat.leaves[0]
    full = cat.path_between(cat.root, leaf)
    with pytest.raises(NotRootToLeaf):
        ds.query(PathQuery(p, tuple(full[:-1])))  # stops early
    with pytest.raises(NotRootToLeaf):
        ds.query(PathQuery(p, tuple(reversed(full))))


def test_midtree_invalid_heights():
    rng = random.Random(5)
    cat = random_tree_catalog(10, 64, 4, rng)
    with pytest.raises(InvalidHeights):
        MidTreeDS(cat, 4, 4, rng)


def test_midtree_single_level_when_h1_is_half():
    rng = random.Random(6)
    cat = random_tree_catalog(40, 512, 15, rng)
    ds = MidTreeDS(cat, 8, 16, rng)
    assert ds.levels == 1


def test_midtree_hierarchy_shape():
    rng = random.Random(7)
    cat = random_tree_catalog(64, 512, 16, rng)
    ds = MidTreeDS(cat, 4, 16, rng)
    assert ds.levels == 2
    cut_roots = [v for v, d in cat.depth.items() if d % 16 == 0]
    assert sorted(ds.forest) == sorted(cut_roots)


def test_midtree_regime_enforced():
    rng = random.Random(8)
    cat = random_tree_catalog(40, 512, 12, rng)
    ds = MidTreeDS(cat, 3, 9, rng, strict=True)
    p = random_point(cat.bbox, rng)
    with pytest.raises(PathOutOfRegime):
        ds.query(PathQuery(p, (cat.root,)))


def test_midtree_random_queries_match_oracle():
    rng = random.Random(9)
    cat = random_tree_catalog(150, 4096, 24, rng)
    h1, h2 = 4, 16
    ds = MidTreeDS(cat, h1, h2, rng, strict=True)
    vids = list(cat.vertices)
    done = 0
    while done < 100:
        u, v = rng.choice(vids), rng.choice(vids)
        path = tuple(cat.path_between(u, v))
        if not h1 <= len(path) <= h2:
            continue
        done += 1
        q = PathQuery(random_point(cat.bbox, rng), path)
        c = WorkCounters()
        assert ds.query(q, c) == oracle_query(cat, q.q, path)
        # Two halves, each crossing at most one forest boundary, each segment
        # one structure per hierarchy level plus the truncation query.
        assert c.structures_queried <= 4 * (ds.levels + 1) + 2


def test_midtree_path_inside_one_truncation_subtree():
    rng = random.Random(10)
    cat = random_tree_catalog(80, 1024, 12, rng)
    ds = MidTreeDS(cat, 4, 12, rng, strict=True)
    # A short descending path confined to one truncation subtree.
    vids = list(cat.vertices)
    for _ in range(200):
        u = rng.choice(vids)
        path = [u]
        while cat.children[path[-1]] and len(path) < 4:
            path.append(rng.choice(cat.children[path[-1]]))
        if len(path) != 4:
            continue
        q = PathQuery(random_point(cat.bbox, rng), tuple(path))
        c = WorkCounters()
        ans = ds.query(q, c)
        assert ans == oracle_query(cat, q.q, path)
