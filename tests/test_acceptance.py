"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single pass/fail line; run with ``pytest -s`` to see them
inline.  These are deliberately heavier than the unit suites: they sweep
instance sizes, sample thousands of cases, and fit the counter cost model.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from ofc2d.catalog.graph_ds import GraphDS, graph_to_path_catalog, subgraph_to_walk
from ofc2d.catalog.long_path import LongPathDS
from ofc2d.catalog.mid_tree import MidTreeDS
from ofc2d.catalog.model import (
    CatalogGraph,
    PathQuery,
    SubgraphQuery,
    assign_z_ranges,
    heavy_path_decompose,
)
from ofc2d.catalog.boot import BootstrappedDS
from ofc2d.catalog.short_tree import ShortTreeDS
from ofc2d.catalog.tree_ds import TreeDS
from ofc2d.counters import WorkCounters
from ofc2d.cutting import cutting_build
from ofc2d.gen import (
    default_bbox,
    random_graph_catalog,
    random_point,
    random_tiling,
    random_tree_catalog,
)
from ofc2d.geometry import (
    Point,
    tiling_locate_naive,
    trapezoidal_decompose,
    validate_tiling,
)
from ofc2d.hardgen import (
    box_intersection_volume,
    gen_mid_tree_instance,
    gen_short_tree_instance,
)
from ofc2d.oracle import oracle_query

from helpers import random_segments


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"\ncriterion {num} ({desc}): FAIL")
        raise
    print(f"\ncriterion {num} ({desc}): PASS")


def sample_paths(cat, rng, count, max_len=30):
    vids = list(cat.vertices)
    out = []
    while len(out) < count:
        u, v = rng.choice(vids), rng.choice(vids)
        p = cat.path_between(u, v)
        if len(p) <= max_len:
            out.append(tuple(p))
    return out


def test_criterion_1_oracle_equivalence():
    with criterion(1, "oracle equivalence"):
        t0 = time.time()
        sizes = [2 ** 10] * 14 + [2 ** 14] * 4 + [2 ** 17] * 2
        checked = 0
        for seed, n in enumerate(sizes):
            rng = random.Random(1000 + seed)
            nv = max(16, min(256, n // 256 * 8 or 32))
            kinds = {
                "path": random_tree_catalog(nv, n, nv - 1, rng),
                "short-tree": random_tree_catalog(
                    nv, n, min(nv - 1, max(2, int(math.log2(n) / 2))), rng),
                "mid-tree": random_tree_catalog(
                    nv, n, min(nv - 1, int(math.log2(n)) + 4), rng),
                "tree": random_tree_catalog(nv, n, min(nv - 1, nv // 3), rng),
                "long-path": random_tree_catalog(
                    max(nv, 130), n, 120, rng),
                "graph": random_graph_catalog(max(16, nv // 2), n, 3, rng),
            }
            logn = math.log2(n)
            h1 = max(1, math.ceil(logn / 2))
            h2 = max(h1 + 1, math.ceil(logn * logn / 2))
            for kind, cat in kinds.items():
                if kind in ("path", "long-path"):
                    ds = LongPathDS(cat)
                elif kind == "short-tree":
                    ds = ShortTreeDS(cat, rng)
                elif kind == "mid-tree":
                    ds = MidTreeDS(cat, h1, h2, rng)
                elif kind == "tree":
                    ds = TreeDS(cat, rng)
                else:
                    ds = GraphDS(cat, rng)
                n_q = 500 if n <= 2 ** 14 else 120
                if kind == "graph":
                    vids = list(cat.vertices)
                    for _ in range(n_q):
                        walk = [rng.choice(vids)]
                        while len(walk) < 6:
                            nxt = [w for w in cat.vertices[walk[-1]].adjacency
                                   if w not in walk]
                            if not nxt:
                                break
                            walk.append(rng.choice(nxt))
                        q = PathQuery(random_point(cat.bbox, rng), tuple(walk))
                        assert ds.query(q, WorkCounters()) == \
                            oracle_query(cat, q.q, q.path)
                        checked += 1
                else:
                    max_len = 30 if n < 2 ** 17 else 20
                    for path in sample_paths(cat, rng, n_q, max_len):
                        q = PathQuery(random_point(cat.bbox, rng), path)
                        assert ds.query(q, WorkCounters()) == \
                            oracle_query(cat, q.q, path)
                        checked += 1
        elapsed = time.time() - t0
        print(f"  {checked} queries over {len(sizes)} instances x 6 kinds "
              f"in {elapsed:.0f}s")
        assert elapsed < 300


def test_criterion_2_structural_invariants():
    with criterion(2, "structural invariants"):
        rng = random.Random(2)
        for case in range(1000):
            bbox = default_bbox(16)
            segs = random_segments(bbox, rng.randint(0, 10), rng)
            t = trapezoidal_decompose(bbox, segs)
            assert len(t.rects) <= 4 * len(segs) + 1
            validate_tiling(t)
        for case in range(1000):
            k = rng.randint(1, 40)
            tiling = random_tiling(default_bbox(k), k, rng)
            r = rng.randint(1, k)
            cut = cutting_build(tiling, r, rng)
            assert len(cut.cells.rects) <= 4 * r
            assert cut.max_conflict() <= 8 * k // r
        for case in range(1000):
            nv = rng.randint(2, 40)
            cat = random_tree_catalog(nv, nv * 2, rng.randint(1, nv - 1), rng)
            z = assign_z_ranges(cat)
            for v, kids in cat.children.items():
                if kids:
                    assert z[v] == (min(z[c][0] for c in kids),
                                    max(z[c][1] for c in kids))
        for case in range(1000):
            nv = rng.randint(2, 60)
            cat = random_tree_catalog(nv, nv * 2, rng.randint(1, nv - 1), rng)
            paths = heavy_path_decompose(cat)
            path_of = {v: i for i, p in enumerate(paths) for v in p}
            limit = math.ceil(math.log2(nv)) + 1
            for leaf in cat.leaves:
                walk = cat.path_between(cat.root, leaf)
                assert len({path_of[v] for v in walk}) <= limit


def _short_speedup(n):
    h = int(math.log2(n)) // 2
    tree, _ = gen_short_tree_instance(n, h)
    assert tree.height <= math.log2(tree.n) / 2
    ds = ShortTreeDS(tree, rng=random.Random(1))
    rng = random.Random(2)
    naive = fast = 0
    for _ in range(100):
        leaf = rng.choice(tree.leaves)
        path = tuple(tree.path_between(tree.root, leaf))
        q = PathQuery(random_point(tree.bbox, rng), path)
        c = WorkCounters()
        assert ds.query(q, c) == oracle_query(tree, q.q, path)
        fast += c.total
        cn = WorkCounters()
        for v in path:
            tiling_locate_naive(tree.vertices[v].tiling, q.q, cn)
        naive += cn.total
    return naive / fast


def test_criterion_3_short_tree_speedup():
    with criterion(3, "short-tree counter speedup"):
        ratios = [_short_speedup(n) for n in (2 ** 12, 2 ** 14, 2 ** 17)]
        print(f"  naive/short work ratios {[round(r, 1) for r in ratios]}")
        assert ratios[-1] >= 1.5
        assert ratios[0] < ratios[1] < ratios[2]


def test_criterion_4_mid_tree_query_shape():
    with criterion(4, "mid-tree sqrt(|path|) log n fit"):
        n = 2 ** 14
        rng = random.Random(4)
        cat = random_tree_catalog(140, n, 90, rng)
        logn = math.log2(cat.n)
        h1 = max(1, math.ceil(logn / 2))
        ds = MidTreeDS(cat, h1, cat.height + 2, rng)  # single forest tree
        by_len = {}
        vids = list(cat.vertices)
        for _ in range(4000):
            u, v = rng.choice(vids), rng.choice(vids)
            path = tuple(cat.path_between(u, v))
            L = len(path)
            if not (8 <= L <= 80):
                continue
            q = PathQuery(random_point(cat.bbox, rng), path)
            c = WorkCounters()
            assert ds.query(q, c) == \
                oracle_query(cat, q.q, path)
            # Single forest tree: each anchored half is one recursion
            # descent, at most hierarchy depth + 1 structures.
            assert c.structures_queried <= 2 * (ds.levels + 1)
            by_len.setdefault(L, []).append(c.total)
        lens = sorted(by_len)
        assert lens[-1] / lens[0] >= 10  # one decade of |path|
        pts = [(L, sum(v) / len(v)) for L, v in by_len.items()]
        model = [math.sqrt(L) * logn for L, _ in pts]
        a = sum(w * m for (_, w), m in zip(pts, model)) / sum(m * m for m in model)
        worst = max(abs(w - a * m) / (a * m) for (_, w), m in zip(pts, model))
        print(f"  fit a={a:.2f}, worst per-length residual {worst:.0%} "
              f"over |path| {lens[0]}..{lens[-1]}")
        # The paper's bound also has a term linear in |path|: least squares
        # of a2*sqrt(L)*log n + b2*L, reported only.
        s11 = sum(m * m for m in model)
        s12 = sum(m * L for (L, _), m in zip(pts, model))
        s22 = sum(L * L for L, _ in pts)
        t1 = sum(w * m for (_, w), m in zip(pts, model))
        t2 = sum(w * L for L, w in pts)
        det = s11 * s22 - s12 * s12
        a2, b2 = (t1 * s22 - t2 * s12) / det, (t2 * s11 - t1 * s12) / det
        fits = [a2 * m + b2 * L for (L, _), m in zip(pts, model)]
        worst2 = max(abs(w - f) / f for (_, w), f in zip(pts, fits))
        root_share = a2 * sum(model) / sum(fits)
        print(f"  two-term fit a={a2:.2f} (sqrt|path| log n), b={b2:.2f} (|path|), "
              f"worst per-length residual {worst2:.0%}; share of fitted counters "
              f"{root_share:.0%} sqrt|path| log n, {1 - root_share:.0%} |path|")
        assert worst <= 0.5


def test_criterion_5_long_path_bounds():
    with criterion(5, "long-path structure bounds"):
        n = 2 ** 14
        rng = random.Random(5)
        logsq = int(math.log2(n) ** 2 / 2)
        cat = random_tree_catalog(160, n, logsq + 10, rng)
        ds = LongPathDS(cat)
        logn = math.ceil(math.log2(cat.n))
        ratios = []
        vids = list(cat.vertices)
        for _ in range(300):
            u, v = rng.choice(vids), rng.choice(vids)
            path = tuple(cat.path_between(u, v))
            q = PathQuery(random_point(cat.bbox, rng), path)
            c = WorkCounters()
            assert ds.query(q, c) == oracle_query(cat, q.q, path)
            assert c.structures_queried <= 2 * (logn + 1)
            ratios.append(c.total / (math.log2(cat.n) ** 2 + len(path)))
        a = sum(ratios) / len(ratios)
        print(f"  fitted a={a:.2f} for work <= a*(log^2 n + |path|), "
              f"max/mean spread {max(ratios) / a:.2f}")
        assert max(ratios) <= 3 * a  # bounded spread around the fit


def test_criterion_6_space_accounting(tmp_path):
    with criterion(6, "space accounting and bootstrapping"):
        from ofc2d.cli import main

        inst = tmp_path / "t.cat"
        assert main(["gen", "--kind", "random-tree", "--vertices", "120",
                     "--height", "30", "--per-vertex", "136", "--seed", "6",
                     "--out", str(inst)]) == 0
        from ofc2d import cli, fileio

        cat = fileio.load_catalog(inst)
        for kind in ("short-tree", "mid-tree", "tree", "long-path"):
            ds = cli._build_structure(cat, kind, random.Random(6))
            entries = ds.stored_entries
            logn = math.log2(cat.n)
            exp = math.log2(entries / cat.n) / math.log2(logn) if entries > cat.n else 0.0
            print(f"  {kind}: {entries} entries, n*log^{exp:.2f} n")
            assert entries <= cat.n * logn ** 3
        # Bootstrapping telescopes: each extra round cuts the deepest layer's
        # cell count strictly.
        rng = random.Random(66)
        big = random_tree_catalog(260, 2 ** 17, 40, rng)
        boot = BootstrappedDS(big, 2, rng)
        cells = boot.layer_cell_counts()
        print(f"  layer cells at n=2^17: {[big.n] + cells}")
        assert len(cells) == 2
        assert cells[1] < cells[0] < big.n


def test_criterion_7_hard_instance_fidelity():
    with criterion(7, "hard-instance regularity (exact rationals)"):
        for gen, n, h in ((gen_short_tree_instance, 2 ** 14, 7),
                          (gen_mid_tree_instance, 2 ** 16, 40)):
            tree, wit = gen(n, h)
            p = wit.params
            rng = random.Random(7)
            bbox = tree.bbox
            for _ in range(100):
                leaf = rng.choice(tree.leaves)
                q = Point(rng.randrange(bbox.xlo, bbox.xhi),
                          rng.randrange(bbox.ylo, bbox.yhi))
                assert len(wit.containing(wit.lift(q, leaf))) == wit.t
            cap = p.V / 2 ** p.r
            ids = list(wit.boxes)
            for _ in range(200):
                a, b = rng.choice(ids), rng.choice(ids)
                if a == b:
                    continue
                v = box_intersection_volume(wit.boxes[a], wit.boxes[b])
                assert isinstance(v, Fraction)
                assert v <= (Fraction(0) if wit.shape[a][2] == wit.shape[b][2]
                             else cap)


def test_criterion_8_graph_reduction():
    with criterion(8, "graph reduction for subtree queries"):
        rng = random.Random(8)
        tree = random_tree_catalog(48, 2 ** 10, 10, rng)
        g = CatalogGraph(dict(tree.vertices), degree=3)
        ds = GraphDS(g, rng)
        expanded, copy_map = graph_to_path_catalog(g)
        assert ds.copy_map == copy_map
        for _ in range(100):
            root = rng.choice(list(tree.vertices))
            vs = {root}
            while len(vs) < rng.randint(1, 8):
                grow = [w for v in vs for w in tree.vertices[v].adjacency
                        if w not in vs]
                if not grow:
                    break
                vs.add(rng.choice(grow))
            q = SubgraphQuery(random_point(g.bbox, rng), frozenset(vs))
            walk = subgraph_to_walk(g, q, ds.copy_map)
            assert len(walk.path) <= 2 * len(vs)
            assert len(set(walk.path)) == len(walk.path)
            for a, b in zip(walk.path, walk.path[1:]):
                assert b in expanded.vertices[a].adjacency
            assert ds.query(q) == oracle_query(g, q.q, sorted(vs))
