import math
import random

import pytest

from ofc2d.catalog.model import CatalogTree, CatalogVertex, PathQuery
from ofc2d.catalog.short_tree import ShortTreeDS
from ofc2d.catalog.tree_ds import TreeDS
from ofc2d.counters import WorkCounters
from ofc2d.errors import VertexNotOnPath
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


def test_single_vertex():
    tree, rng = complete_tree(0, 16)
    ds = ShortTreeDS(tree, rng)
    q = PathQuery(random_point(tree.bbox, rng), (0,))
    assert ds.query(q) == oracle_query(tree, q.q, [0])


def test_random_queries_match_oracle():
    tree, rng = complete_tree(5, 64, seed=8)  # n = 63*64 ≈ 2^12, height 5 <= 6
    ds = ShortTreeDS(tree, rng)
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
        ShortTreeDS(tree, rng).query(PathQuery(p, (1, 2)))


def test_per_vertex_conflict_budget():
    tree, rng = complete_tree(4, 32, seed=9)
    ds = ShortTreeDS(tree, rng)
    for vid, cut in ds.cuttings.items():
        ni = len(tree.vertices[vid].tiling)
        assert cut.max_conflict() <= 8 * max(1, ni / cut.target)


def test_queries_leave_stored_entries_unchanged():
    """``stored_entries`` counts set-up entries only: short queries over mixed
    cuttings build chunk stabs and leave it as the constructor set it."""
    rng = random.Random(3)
    cat = random_tree_catalog(6, 6000, 3, rng)
    short, tree = ShortTreeDS(cat, rng), TreeDS(cat, rng)
    assert short.direct and short.cells and tree.short.direct and tree.short.cells
    before = (short.stored_entries, tree.stored_entries)
    vids = sorted(cat.vertices)
    for _ in range(30):
        path = tuple(cat.path_between(rng.choice(vids), rng.choice(vids)))
        q = PathQuery(random_point(cat.bbox, rng), path)
        assert short.query(q) == tree.query(q) == oracle_query(cat, q.q, path)
    assert short._stabs and tree.short._stabs
    assert (short.stored_entries, tree.stored_entries) == before
