import math
import random

import pytest

from ofc2d.catalog.mid_tree import SubTree
from ofc2d.catalog.model import (
    CatalogGraph,
    CatalogTree,
    CatalogVertex,
    PathQuery,
    assign_z_ranges,
    heavy_path_decompose,
    longest_path,
)
from ofc2d.errors import UnknownVertex
from ofc2d.gen import (
    default_bbox,
    random_graph_catalog,
    random_tiling,
    random_tree_catalog,
)
from ofc2d.geometry import Rect, Tiling, validate_tiling
from ofc2d.oracle import oracle_query
from ofc2d.gen import random_point


def test_z_ranges_single_leaf():
    rng = random.Random(1)
    cat = random_tree_catalog(1, 4, 0, rng)
    assert assign_z_ranges(cat) == {0: (0, 1)}


def test_z_ranges_complete_tree_four_leaves():
    from test_catalog_short_tree import complete_tree

    tree, _ = complete_tree(2, 2)
    z = assign_z_ranges(tree)
    assert z[tree.root] == (0, 4)
    assert sorted(z[leaf] for leaf in tree.leaves) == [(0, 1), (1, 2), (2, 3), (3, 4)]


@pytest.mark.parametrize("seed", range(5))
def test_z_ranges_parent_union_of_children(seed):
    rng = random.Random(seed)
    cat = random_tree_catalog(60, 80, rng.randint(6, 12), rng)
    z = assign_z_ranges(cat)
    for v, kids in cat.children.items():
        if kids:
            ivals = sorted(z[c] for c in kids)
            assert ivals[0][0] == z[v][0] and ivals[-1][1] == z[v][1]
            for (a, b), (c, d) in zip(ivals, ivals[1:]):
                assert b == c  # contiguous, disjoint
    for leaf in cat.leaves:
        lo, hi = z[leaf]
        assert hi - lo == 1


def _popped_order(t, u):
    """Preorder taking children right to left: the order a stack that
    pushes them in id order pops them."""
    return [u] + [w for c in reversed(t.children[u]) for w in _popped_order(t, c)]


def _leaves_left_to_right(t, u):
    kids = t.children[u]
    return [w for c in kids for w in _leaves_left_to_right(t, c)] if kids else [u]


def _check_walk(t):
    assert t.order == _popped_order(t, t.root)
    assert sorted(t.order) == sorted(t.vertices)
    pos = {v: i for i, v in enumerate(t.order)}
    assert all(pos[t.parent[v]] < pos[v] for v in t.order if v != t.root)
    assert t.leaves == _leaves_left_to_right(t, t.root)


@pytest.mark.parametrize("seed", range(5))
def test_walk_order_on_trees_and_slices(seed):
    rng = random.Random(seed)
    cat = random_tree_catalog(60, 80, rng.randint(6, 12), rng)
    _check_walk(cat)
    for _ in range(10):
        root = rng.choice(sorted(cat.vertices))
        cut = rng.choice([None, 0, 1, 2, rng.randint(3, 8)])
        sub = SubTree(cat, root, cut)
        _check_walk(sub)
        # RootLeafDS draws its cuttings in this vertex order.
        assert list(sub.vertices) == sub.order
        for v in sub.order:
            assert sub.depth[v] == cat.depth[v] - cat.depth[root]
            assert sub.children[v] == ([] if sub.depth[v] == cut else cat.children[v])
        if sub.height > 1:  # a slice of a slice, as the mid-tree recursion cuts
            top = SubTree(sub, root, sub.height // 2)
            _check_walk(top)
            assert list(top.vertices) == top.order


def test_heavy_paths_on_path_tree():
    rng = random.Random(7)
    cat = random_tree_catalog(20, 40, 19, rng)
    assert len(heavy_path_decompose(cat)) == 1


def test_heavy_paths_complete_tree():
    from test_catalog_short_tree import complete_tree

    tree, _ = complete_tree(3, 2)  # 15 vertices, 8 leaves
    paths = heavy_path_decompose(tree)
    assert len(paths) == 8
    covered = sorted(v for p in paths for v in p)
    assert covered == sorted(tree.vertices)
    # Tie-break goes to the lower vertex id.
    root_path = next(p for p in paths if p[0] == tree.root)
    assert root_path == [0, 1, 3, 7]


def longest_path_brute(cat):
    return max(len(cat.path_between(u, v)) for u in cat.vertices for v in cat.vertices)


@pytest.mark.parametrize("seed", range(8))
def test_longest_path_matches_brute_force(seed):
    rng = random.Random(seed)
    nv = rng.randrange(2, 40)
    cat = random_tree_catalog(nv, 2 * nv, rng.randrange(1, nv), rng)
    assert longest_path(cat) == longest_path_brute(cat)


def test_longest_path_chain_and_single_vertex():
    rng = random.Random(9)
    chain = random_tree_catalog(25, 50, 24, rng)
    assert longest_path(chain) == longest_path_brute(chain) == 25
    single = random_tree_catalog(1, 4, 0, rng)
    assert longest_path(single) == longest_path_brute(single) == 1


def test_heavy_paths_crossing_bound():
    rng = random.Random(8)
    cat = random_tree_catalog(1000, 1200, 40, rng)
    paths = heavy_path_decompose(cat)
    path_of = {v: i for i, p in enumerate(paths) for v in p}
    limit = math.ceil(math.log2(1000)) + 1
    for leaf in cat.leaves:
        walk = cat.path_between(cat.root, leaf)
        crossed = len({path_of[v] for v in walk})
        assert crossed <= limit


def test_path_query_rejects_repeats():
    from ofc2d.geometry import Point

    with pytest.raises(ValueError):
        PathQuery(Point(0, 0), (1, 2, 1))


def test_oracle_unknown_vertex():
    rng = random.Random(9)
    cat = random_tree_catalog(4, 16, 3, rng)
    with pytest.raises(UnknownVertex):
        oracle_query(cat, random_point(cat.bbox, rng), [0, 99])


def test_graph_catalog_respects_degree():
    rng = random.Random(10)
    g = random_graph_catalog(30, 120, 3, rng)
    assert all(len(v.adjacency) <= 3 for v in g.vertices.values())


def test_tree_rejects_cycle_and_disconnection():
    from ofc2d.catalog.model import CatalogVertex
    from ofc2d.gen import default_bbox, random_tiling

    rng = random.Random(11)
    bbox = default_bbox(8)
    t = lambda i: random_tiling(bbox, 2, rng, start_id=10 * i)
    cyc = {
        0: CatalogVertex(0, t(0), (1, 2)),
        1: CatalogVertex(1, t(1), (0, 2)),
        2: CatalogVertex(2, t(2), (0, 1)),
    }
    with pytest.raises(ValueError):
        CatalogTree(cyc, 0)
    disc = {
        0: CatalogVertex(0, t(3), ()),
        1: CatalogVertex(1, t(4), ()),
    }
    with pytest.raises(ValueError):
        CatalogTree(disc, 0)


def _pair(adj0, adj1, bbox1=None):
    """Two vertices with the given adjacency; vertex 1 tiles ``bbox1``."""
    rng = random.Random(12)
    bbox = default_bbox(8)
    return {
        0: CatalogVertex(0, random_tiling(bbox, 2, rng), adj0),
        1: CatalogVertex(1, random_tiling(bbox1 or bbox, 2, rng), adj1),
    }


@pytest.mark.parametrize("build", [
    lambda vs: CatalogTree(vs, 0),
    lambda vs: CatalogGraph(vs, 3),
], ids=["tree", "graph"])
def test_catalogs_check_adjacency_and_bbox(build):
    build(_pair((1,), (0,)))  # well formed
    with pytest.raises(ValueError, match="unknown neighbour"):
        build(_pair((1,), (0, 5)))
    with pytest.raises(ValueError, match="does not list"):
        build(_pair((1,), ()))
    with pytest.raises(ValueError, match="vertex 0 lists neighbour 1 more than once"):
        build(_pair((1, 1), (0,)))
    with pytest.raises(ValueError, match="bboxes"):
        build(_pair((1,), (0,), bbox1=Rect(-1, 0, 16, 0, 8)))


@pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                   reason="vertex tilings are not checked for overlaps")
def test_tree_rejects_overlapping_tiling():
    """A vertex tiling whose rects overlap is not a subdivision.  Accepted,
    it makes TreeDS, ShortTreeDS, MidTreeDS and RootLeafDS answer
    {0: 1, 1: 0} at (1, 1) on the path (0, 1), where oracle_query answers
    {0: 0, 1: 0}; so the catalog must refuse it, as it refuses the other
    malformed catalogs above."""
    bbox = Rect(-1, 0, 8, 0, 8)
    vertices = {
        0: CatalogVertex(0, Tiling(bbox, [Rect(0, 0, 8, 0, 8), Rect(1, 0, 4, 0, 4)]), (1,)),
        1: CatalogVertex(1, Tiling(bbox, [Rect(0, 0, 8, 0, 8)]), (0,)),
    }
    with pytest.raises(ValueError):
        CatalogTree(vertices, 0)


def test_validate_tiling_refuses_the_overlapping_vertex_tiling():
    """The check that would mend the xfail above exists: it refuses vertex
    0's tiling there, whose rects overlap on [0, 4) x [0, 4)."""
    bbox = Rect(-1, 0, 8, 0, 8)
    with pytest.raises(ValueError):
        validate_tiling(Tiling(bbox, [Rect(0, 0, 8, 0, 8), Rect(1, 0, 4, 0, 4)]))
