import math
import random

import pytest

from ofc2d.catalog.long_path import LongPathDS
from ofc2d.catalog.model import CatalogTree, CatalogVertex, PathQuery
from ofc2d.catalog.path_ds import PathDS, build_path_structure
from ofc2d.counters import WorkCounters
from ofc2d.errors import UnknownVertex, VertexNotOnPath
from ofc2d.gen import random_path_catalog, random_point, random_tree_catalog
from ofc2d.geometry import Rect, Tiling
from ofc2d.oracle import oracle_query


def test_single_vertex_path():
    rng = random.Random(1)
    cat = random_path_catalog(1, 8, rng)
    ds = build_path_structure(cat)
    assert len(ds.blocks) == 1
    q = PathQuery(random_point(cat.bbox, rng), (0,))
    ans = ds.query(q)
    assert ans == oracle_query(cat, q.q, [0])


def test_block_count_ceiling():
    rng = random.Random(2)
    # 10 vertices, 16 rects total => block size ceil(log2 16) = 4 => 3 blocks.
    cat = random_path_catalog(10, 16, rng)
    ds = build_path_structure(cat)
    assert ds.block_size == 4
    assert len(ds.blocks) == 3


def test_rejects_non_path_catalog():
    rng = random.Random(3)
    cat = random_tree_catalog(15, 64, 4, rng)
    with pytest.raises(ValueError):
        build_path_structure(cat)


def test_random_queries_match_oracle():
    rng = random.Random(4)
    cat = random_path_catalog(32, 512, rng)
    ds = build_path_structure(cat)
    for _ in range(50):
        a = rng.randrange(32)
        b = rng.randrange(32)
        path = list(range(min(a, b), max(a, b) + 1))
        if rng.random() < 0.5:
            path.reverse()
        q = PathQuery(random_point(cat.bbox, rng), tuple(path))
        c = WorkCounters()
        ans = ds.query(q, c)
        assert ans == oracle_query(cat, q.q, path)
        assert c.structures_queried <= math.ceil(len(path) / ds.block_size) + 1


def test_vertex_not_on_path():
    rng = random.Random(5)
    cat = random_path_catalog(8, 64, rng)
    ds = build_path_structure(cat)
    p = random_point(cat.bbox, rng)
    with pytest.raises(UnknownVertex):  # not in the catalog at all
        ds.query(PathQuery(p, (0, 99)))
    with pytest.raises(VertexNotOnPath):
        ds.query(PathQuery(p, (0, 2)))  # not contiguous
    head = PathDS([0, 1, 2, 3], cat.vertices)
    with pytest.raises(VertexNotOnPath):  # in the catalog, off this chain
        head.query(PathQuery(p, (3, 4)))


def test_entry_accounting():
    rng = random.Random(6)
    cat = random_path_catalog(16, 256, rng)
    ds = build_path_structure(cat)
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
        cat = numbered_per_vertex(random_path_catalog(12, 192, rng))
        ds = build_path_structure(cat)
    else:
        cat = numbered_per_vertex(random_tree_catalog(40, 640, 12, rng))
        ds = LongPathDS(cat)
    vids = list(cat.vertices)
    for _ in range(50):
        path = tuple(cat.path_between(rng.choice(vids), rng.choice(vids)))
        q = PathQuery(random_point(cat.bbox, rng), path)
        assert ds.query(q) == oracle_query(cat, q.q, path)
