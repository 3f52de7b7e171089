import math
import random

import pytest

from ofc2d.catalog.long_path import LongPathDS
from ofc2d.catalog.model import CatalogTree, CatalogVertex, PathQuery
from ofc2d.catalog.path_ds import BLOCK_C
from ofc2d.counters import WorkCounters
from ofc2d.errors import UnknownVertex, VertexNotOnPath
from ofc2d.gen import random_point, random_tree_catalog
from ofc2d.geometry import Rect, Tiling
from ofc2d.oracle import oracle_query
from ofc2d.stabbing import Stab2D


def test_single_vertex_path():
    rng = random.Random(1)
    cat = random_tree_catalog(1, 8, 0, rng)
    ds = LongPathDS(cat)
    assert len(ds.structures[0].blocks) == 1
    q = PathQuery(random_point(cat.bbox, rng), (0,))
    ans = ds.query(q)
    assert ans == oracle_query(cat, q.q, [0])


def test_block_count_ceiling():
    rng = random.Random(2)
    # 50 vertices, 64 rects total => block size BLOCK_C * ceil(log2 64) = 24
    # => 3 blocks, the last one short.
    cat = random_tree_catalog(50, 64, 49, rng)
    ds = LongPathDS(cat)
    assert len(ds.structures) == 1  # a chain is one heavy path
    store = ds.structures[0]
    assert BLOCK_C == 4
    assert store.block_size == 24
    assert len(store.blocks) == 3


def test_random_queries_match_oracle(monkeypatch):
    rng = random.Random(4)
    cat = random_tree_catalog(32, 512, 31, rng)
    ds = LongPathDS(cat)
    block_size = ds.structures[0].block_size
    stabs = []
    real_stab = Stab2D.query

    def counted(self, q, counters=None):
        stabs.append(q)
        return real_stab(self, q, counters)

    monkeypatch.setattr(Stab2D, "query", counted)
    for _ in range(50):
        a = rng.randrange(32)
        b = rng.randrange(32)
        path = list(range(min(a, b), max(a, b) + 1))
        if rng.random() < 0.5:
            path.reverse()
        q = PathQuery(random_point(cat.bbox, rng), tuple(path))
        c = WorkCounters()
        stabs.clear()
        ans = ds.query(q, c)
        assert ans == oracle_query(cat, q.q, path)
        assert c.structures_queried == 1  # one run along the one chain
        assert 1 <= len(stabs) <= math.ceil(len(path) / block_size) + 1


def test_runs_across_interior_blocks(monkeypatch):
    """Runs that start and end inside blocks of a 3-block chain, in both
    directions: the middle block is an interior block, kept whole."""
    rng = random.Random(8)
    cat = random_tree_catalog(96, 512, 95, rng)
    ds = LongPathDS(cat)
    store = ds.structures[0]
    size = store.block_size
    assert size == BLOCK_C * 9 and len(store.blocks) == 3
    stabs = []
    real_stab = Stab2D.query

    def counted(self, q, counters=None):
        stabs.append(q)
        return real_stab(self, q, counters)

    monkeypatch.setattr(Stab2D, "query", counted)
    for _ in range(40):
        # Each end strictly inside its block, so both end blocks are
        # filtered.
        lo = rng.randrange(1, size - 1)
        hi = rng.randrange(2 * size + 1, 96 - 1)
        path = list(range(lo, hi + 1))
        if rng.random() < 0.5:
            path.reverse()
        q = PathQuery(random_point(cat.bbox, rng), tuple(path))
        stabs.clear()
        assert ds.query(q) == oracle_query(cat, q.q, path)
        assert len(stabs) == 3 <= math.ceil(len(path) / size) + 1
    for path in (list(range(size + 3, 2 * size + 2)), list(range(2 * size - 2, size, -1))):
        # Runs inside one or across two blocks, starting off a block edge.
        q = PathQuery(random_point(cat.bbox, rng), tuple(path))
        stabs.clear()
        assert ds.query(q) == oracle_query(cat, q.q, path)
        assert len(stabs) <= math.ceil(len(path) / size) + 1


def test_vertex_not_on_path():
    rng = random.Random(5)
    cat = random_tree_catalog(8, 64, 7, rng)
    ds = LongPathDS(cat)
    p = random_point(cat.bbox, rng)
    with pytest.raises(UnknownVertex):  # not in the catalog at all
        ds.query(PathQuery(p, (0, 99)))
    for path in ((0, 2), (0, 2, 1)):  # not a walk along the chain
        with pytest.raises(VertexNotOnPath):
            ds.query(PathQuery(p, path))
    assert ds.query(PathQuery(p, (3, 2, 1))) == oracle_query(cat, p, [3, 2, 1])


def test_entry_accounting():
    rng = random.Random(6)
    cat = random_tree_catalog(16, 256, 15, rng)
    ds = LongPathDS(cat)
    n = cat.n
    assert ds.stored_entries <= 4 * n * math.ceil(math.log2(n))


def numbered_per_vertex(cat):
    """The same catalog with every vertex numbering its rects from 0."""
    vertices = {}
    for vid, v in cat.vertices.items():
        rects = [Rect(i, r.xlo, r.xhi, r.ylo, r.yhi) for i, r in enumerate(v.tiling.rects)]
        vertices[vid] = CatalogVertex(vid, Tiling(v.tiling.bbox, rects), v.adjacency)
    return CatalogTree(vertices, cat.root)


@pytest.mark.parametrize("kind", ["path", "long-path"])
def test_rect_ids_reused_across_vertices(kind):
    rng = random.Random(7)
    if kind == "path":
        cat = numbered_per_vertex(random_tree_catalog(12, 192, 11, rng))
    else:
        cat = numbered_per_vertex(random_tree_catalog(40, 640, 12, rng))
    ds = LongPathDS(cat)
    vids = list(cat.vertices)
    for _ in range(50):
        path = tuple(cat.path_between(rng.choice(vids), rng.choice(vids)))
        q = PathQuery(random_point(cat.bbox, rng), path)
        assert ds.query(q) == oracle_query(cat, q.q, path)
