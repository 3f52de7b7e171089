import math
import random

import pytest

from ofc2d.catalog.model import CatalogTree, CatalogVertex, PathQuery
from ofc2d.catalog.short_tree import ShortTreeDS, enumerate_subpaths
from ofc2d.counters import WorkCounters
from ofc2d.errors import HeightOutOfRegime, VertexNotOnPath
from ofc2d.gen import default_bbox, random_point, random_tiling, random_tree_catalog
from ofc2d.oracle import oracle_query


def complete_tree(height, rects_per_vertex, seed=0):
    rng = random.Random(seed)
    count = 2 ** (height + 1) - 1
    bbox = default_bbox(count * rects_per_vertex)
    adjacency = {i: [] for i in range(count)}
    for i in range(count):
        for c in (2 * i + 1, 2 * i + 2):
            if c < count:
                adjacency[i].append(c)
                adjacency[c].append(i)
    vertices = {}
    nid = 0
    for i in range(count):
        t = random_tiling(bbox, rects_per_vertex, rng, start_id=nid)
        nid += rects_per_vertex
        vertices[i] = CatalogVertex(i, t, tuple(adjacency[i]))
    return CatalogTree(vertices, 0), rng


def brute_subpath_count(tree, max_len):
    seen = set()
    for u in tree.vertices:
        for v in tree.vertices:
            p = tree.path_between(u, v)
            if len(p) <= max_len:
                seen.add(tuple(p) if tuple(p) <= tuple(reversed(p)) else tuple(reversed(p)))
    return len(seen)


def test_single_vertex():
    tree, rng = complete_tree(0, 16)
    ds = ShortTreeDS(tree, rng, strict=True)
    q = PathQuery(random_point(tree.bbox, rng), (0,))
    assert ds.query(q) == oracle_query(tree, q.q, [0])


def test_subpath_enumeration_matches_bruteforce():
    tree, _ = complete_tree(3, 4)
    for L in (1, 2, 3, 4, 5):
        assert len(enumerate_subpaths(tree, L)) == brute_subpath_count(tree, L)


def test_height_regime_enforced():
    rng = random.Random(7)
    # height 6 with n = 64 rects: 6 > log2(64)/2 = 3.
    cat = random_tree_catalog(10, 64, 6, rng)
    with pytest.raises(HeightOutOfRegime):
        ShortTreeDS(cat, rng, strict=True)
    ShortTreeDS(cat, rng, strict=False)  # non-strict accepts any height


def test_random_queries_match_oracle():
    tree, rng = complete_tree(5, 64, seed=8)  # n = 63*64 ≈ 2^12, height 5 <= 6
    ds = ShortTreeDS(tree, rng, strict=True)
    vids = list(tree.vertices)
    for _ in range(100):
        u, v = rng.choice(vids), rng.choice(vids)
        path = tuple(tree.path_between(u, v))
        q = PathQuery(random_point(tree.bbox, rng), path)
        c = WorkCounters()
        assert ds.query(q, c) == oracle_query(tree, q.q, path)
        assert c.structures_queried <= math.ceil(len(path) / ds.L)
        assert c.cells_located == len(path)


def test_rejects_non_path():
    tree, rng = complete_tree(3, 16)
    p = random_point(tree.bbox, rng)
    with pytest.raises(VertexNotOnPath):
        ShortTreeDS(tree, rng, strict=True).query(PathQuery(p, (1, 2)))


def test_per_vertex_conflict_budget():
    tree, rng = complete_tree(4, 32, seed=9)
    ds = ShortTreeDS(tree, rng, strict=True)
    for vid, cut in ds.cuttings.items():
        ni = len(tree.vertices[vid].tiling)
        assert cut.max_conflict() <= 8 * max(1, ni / cut.target)
