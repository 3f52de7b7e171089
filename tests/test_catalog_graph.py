import random

import pytest

from ofc2d.catalog.graph_ds import GraphDS, graph_to_path_catalog, subgraph_to_walk
from ofc2d.catalog.model import (
    CatalogGraph,
    CatalogVertex,
    PathQuery,
    SubgraphQuery,
)
from ofc2d.counters import WorkCounters
from ofc2d.errors import DisconnectedSubgraph, UnknownVertex, VertexNotOnPath
from ofc2d.gen import (
    default_bbox,
    random_graph_catalog,
    random_point,
    random_tiling,
)
from ofc2d.oracle import oracle_query


def cycle_graph(k, rects_per_vertex, seed):
    rng = random.Random(seed)
    bbox = default_bbox(k * rects_per_vertex)
    vertices = {}
    for i in range(k):
        t = random_tiling(bbox, rects_per_vertex, rng, start_id=100 * i)
        vertices[i] = CatalogVertex(i, t, ((i - 1) % k, (i + 1) % k))
    return CatalogGraph(vertices, degree=2), rng


def test_triangle_expansion_counts():
    g, _ = cycle_graph(3, 4, 1)
    g2, copy_map = graph_to_path_catalog(g)
    assert len(g2.vertices) == 12
    assert g2.degree == 11
    for v in g.vertices:
        assert len(copy_map[v]) == 4
        # Designated copy keeps the original tiling.
        assert g2.vertices[copy_map[v][0]].tiling is g.vertices[v].tiling
    # Copies of one vertex form a clique.
    a, b = copy_map[0][1], copy_map[0][3]
    assert b in g2.vertices[a].adjacency
    # Copies of adjacent vertices are fully connected.
    assert copy_map[1][2] in g2.vertices[copy_map[0][0]].adjacency


def test_walk_is_simple_and_short():
    g, rng = cycle_graph(8, 2, 2)
    _, copy_map = graph_to_path_catalog(g)
    for size in (1, 3, 5, 8):
        vs = frozenset(rng.sample(range(8), size))
        # A cycle minus vertices may disconnect; keep contiguous arcs.
        start = min(vs)
        vs = frozenset((start + i) % 8 for i in range(size))
        q = SubgraphQuery(random_point(g.bbox, rng), vs)
        pq = subgraph_to_walk(g, q, copy_map)
        assert len(pq.path) == 2 * size - 1
        assert len(set(pq.path)) == len(pq.path)
        # PathQuery construction already rejects repeats; also check every
        # queried vertex appears through at least its designated copy.
        designated = {copy_map[v][0] for v in vs}
        assert designated <= set(pq.path)


def test_disconnected_subgraph_raises():
    g, rng = cycle_graph(8, 2, 3)
    _, copy_map = graph_to_path_catalog(g)
    q = SubgraphQuery(random_point(g.bbox, rng), frozenset({0, 4}))
    with pytest.raises(DisconnectedSubgraph):
        subgraph_to_walk(g, q, copy_map)
    # GraphDS raises it with the walk and without it, after UnknownVertex.
    one_cell = GraphDS(g, rng)
    assert not one_cell.cells
    g2, mixed, _ = mixed_graph(11)
    far = next(v for v in g2.vertices if v != 0 and v not in g2.vertices[0].adjacency)
    for cat, ds, vs in ((g, one_cell, {0, 4}), (g2, mixed, {0, far})):
        p = random_point(cat.bbox, rng)
        with pytest.raises(DisconnectedSubgraph):
            ds.query(SubgraphQuery(p, frozenset(vs)))
        with pytest.raises(UnknownVertex):
            ds.query(SubgraphQuery(p, frozenset(vs | {99})))


def test_path_queries_on_cycle_match_oracle():
    g, rng = cycle_graph(16, 4, 4)
    ds = GraphDS(g, rng)
    for _ in range(40):
        start = rng.randrange(16)
        length = rng.randint(1, 8)
        path = tuple((start + i) % 16 for i in range(length))
        q = PathQuery(random_point(g.bbox, rng), path)
        c = WorkCounters()
        assert ds.query(q, c) == oracle_query(g, q.q, path)
        assert c.cells_located == len(path)


def test_subgraph_queries_match_oracle():
    rng = random.Random(5)
    g = random_graph_catalog(24, 96, 3, rng)
    ds = GraphDS(g, rng)
    vids = list(g.vertices)
    done = 0
    while done < 30:
        seed = rng.choice(vids)
        vs = {seed}
        while len(vs) < rng.randint(1, 6):
            grow = [w for v in vs for w in g.vertices[v].adjacency if w not in vs]
            if not grow:
                break
            vs.add(rng.choice(grow))
        q = SubgraphQuery(random_point(g.bbox, rng), frozenset(vs))
        ans = ds.query(q)
        assert ans == oracle_query(g, q.q, sorted(vs))
        done += 1


def test_full_vertex_set_subgraph():
    g, rng = cycle_graph(6, 3, 6)
    ds = GraphDS(g, rng)
    q = SubgraphQuery(random_point(g.bbox, rng), frozenset(range(6)))
    assert ds.query(q) == oracle_query(g, q.q, range(6))


def test_rejects_unknown_and_non_adjacent():
    g, rng = cycle_graph(6, 3, 7)
    ds = GraphDS(g, rng)
    p = random_point(g.bbox, rng)
    with pytest.raises(UnknownVertex):
        ds.query(PathQuery(p, (0, 99)))
    with pytest.raises(UnknownVertex):
        ds.query(SubgraphQuery(p, frozenset({0, 42})))
    with pytest.raises(VertexNotOnPath):
        ds.query(PathQuery(p, (0, 3)))


def test_only_designated_copies_are_indexed():
    rng = random.Random(9)
    g = random_graph_catalog(20, 80, 3, rng)
    ds = GraphDS(g, rng)
    assert len(ds.cuttings) == len(g.vertices)
    assert set(ds.cuttings) == {copies[0] for copies in ds.copy_map.values()}
    vids = list(g.vertices)
    for _ in range(30):
        vs = {rng.choice(vids)}
        while len(vs) < 4:
            vs.add(rng.choice([w for v in vs for w in g.vertices[v].adjacency]))
        q = SubgraphQuery(random_point(g.bbox, rng), frozenset(vs))
        ans = ds.query(q)
        assert None not in ans.by_vertex
        assert ans == oracle_query(g, q.q, sorted(vs))


def mixed_graph(seed):
    """Six vertices of about 1000 rects on a degree-2 graph: at this size
    their cuttings have 1 to 17 cells, so some vertices are located directly
    and the others through chunk stabs."""
    rng = random.Random(seed)
    g = random_graph_catalog(6, 6000, 2, rng)
    ds = GraphDS(g, rng)
    assert ds.direct and ds.cells
    return g, ds, rng


def connected_set(g, rng, size):
    vids = sorted(g.vertices)
    vs = {rng.choice(vids)}
    while len(vs) < size:
        vs.add(rng.choice([w for v in sorted(vs) for w in g.vertices[v].adjacency]))
    return frozenset(vs)


def test_chunks_without_cells_are_skipped():
    """A chunk of the walk holding no copy with a multi-cell cutting gets no
    stab: none is built, cached, queried or counted for it."""
    g, ds, rng = mixed_graph(11)
    skipped = 0
    for _ in range(40):
        vs = connected_set(g, rng, rng.randint(2, 6))
        q = SubgraphQuery(random_point(g.bbox, rng), vs)
        walk = subgraph_to_walk(g, q, ds.copy_map).path
        chunks = [walk[i:i + ds.L] for i in range(0, len(walk), ds.L)]
        owning = sum(any(v in ds.cells for v in ch) for ch in chunks)
        skipped += len(chunks) - owning
        c = WorkCounters()
        assert ds.query(q, c) == oracle_query(g, q.q, sorted(vs))
        assert c.structures_queried == owning
        assert c.cells_located == len(vs)
    assert skipped > 0
    assert all(s.stored_entries > 0 for s in ds._stabs.values())


def test_stab_keys_are_sorted_copies_that_own_cells():
    """Each chunk's stab is cached under the sorted tuple of its copies with
    multi-cell cuttings, so chunks differing only in order or in other copies
    share one stab."""
    g, ds, rng = mixed_graph(13)
    owning_sets = set()
    for _ in range(60):
        vs = connected_set(g, rng, rng.randint(2, 6))
        q = SubgraphQuery(random_point(g.bbox, rng), vs)
        walk = subgraph_to_walk(g, q, ds.copy_map).path
        for i in range(0, len(walk), ds.L):
            owning = frozenset(v for v in walk[i:i + ds.L] if v in ds.cells)
            if owning:
                owning_sets.add(owning)
        assert ds.query(q) == oracle_query(g, q.q, sorted(vs))
    for key in ds._stabs:
        assert key == tuple(sorted(key))
        assert key and all(v in ds.cells for v in key)
    assert {frozenset(k) for k in ds._stabs} == owning_sets
    assert len(ds._stabs) == len(owning_sets)


def test_walk_deeper_than_recursion_limit():
    """A whole 1200-vertex cycle: its spanning tree is a path far deeper than
    Python's default recursion limit, and the walk still covers it."""
    k = 1200
    g, rng = cycle_graph(k, 2, 14)
    ds = GraphDS(g, rng)
    q = SubgraphQuery(random_point(g.bbox, rng), frozenset(range(k)))
    walk = subgraph_to_walk(g, q, ds.copy_map).path
    assert len(walk) == len(set(walk)) == 2 * k - 1
    assert ds.query(q) == oracle_query(g, q.q, range(k))
