import math
import random

import pytest

from ofc2d.catalog.boot import BootstrappedDS, f_chain
from ofc2d.catalog.mid_tree import MidTreeDS
from ofc2d.catalog.model import PathQuery
from ofc2d.counters import WorkCounters
from ofc2d.errors import InvalidRounds
from ofc2d.gen import random_point, random_tree_catalog
from ofc2d.oracle import oracle_query


def mid_paths(cat, rng, lo, hi, count):
    vids = list(cat.vertices)
    out = []
    while len(out) < count:
        u, v = rng.choice(vids), rng.choice(vids)
        p = cat.path_between(u, v)
        if lo <= len(p) <= hi:
            out.append(tuple(p))
    return out


def test_f_chain_values():
    assert f_chain(2 ** 17, 0) == []
    assert f_chain(2 ** 17, 1) == [17]
    assert f_chain(2 ** 17, 2) == [17, 4]
    assert f_chain(2 ** 17, 5) == [17, 4]  # truncated once the value hits 3


def test_invalid_rounds():
    rng = random.Random(1)
    cat = random_tree_catalog(20, 256, 8, rng)
    with pytest.raises(InvalidRounds):
        BootstrappedDS(cat, -1, rng)


def test_rounds_zero_matches_midtree():
    rng = random.Random(2)
    cat = random_tree_catalog(80, 2048, 14, rng)
    ds = BootstrappedDS(cat, 0, random.Random(7))
    ref = MidTreeDS(cat, ds.h1, ds.h2, random.Random(7), strict=True)
    assert ds.layers == []
    for path in mid_paths(cat, rng, ds.h1, min(ds.h2, 15), 30):
        q = PathQuery(random_point(cat.bbox, rng), path)
        assert ds.query(q) == ref.query(q)


def test_layer_cell_budget():
    rng = random.Random(3)
    cat = random_tree_catalog(100, 4096, 13, rng)
    ds = BootstrappedDS(cat, 1, rng)
    f0 = math.ceil(math.log2(cat.n))
    assert len(ds.layers) == 1
    assert ds.layers[0].cell_count <= 4 * cat.n / f0


def test_layer_cells_strictly_shrink():
    rng = random.Random(4)
    cat = random_tree_catalog(100, 8192, 14, rng)
    ds = BootstrappedDS(cat, 2, rng)
    counts = [cat.n] + ds.layer_cell_counts()
    assert all(b < a for a, b in zip(counts, counts[1:]))


def test_bootstrapped_queries_match_oracle():
    rng = random.Random(5)
    cat = random_tree_catalog(120, 4096, 20, rng)
    # Default h1 sits above the first layer's window at this size; lower it
    # so the layered fast path actually gets exercised.
    ds = BootstrappedDS(cat, 2, rng, h1=3, h2=73)
    layered = 0
    for path in mid_paths(cat, rng, ds.h1, min(ds.h2, 21), 100):
        q = PathQuery(random_point(cat.bbox, rng), path)
        c = WorkCounters()
        assert ds.query(q, c) == oracle_query(cat, q.q, path)
        if ds.route(len(path)) >= 0:
            layered += 1
    assert layered > 0  # the layered fast path was actually exercised


def test_extra_cost_bounded():
    rng = random.Random(6)
    cat = random_tree_catalog(120, 4096, 18, rng)
    rounds = 2
    ds = BootstrappedDS(cat, rounds, rng)
    base = MidTreeDS(cat, ds.h1, ds.h2, random.Random(9), strict=True)
    f0 = math.ceil(math.log2(cat.n))
    for path in mid_paths(cat, rng, ds.h1, min(ds.h2, 19), 30):
        if ds.route(len(path)) < 0:
            continue
        q = PathQuery(random_point(cat.bbox, rng), path)
        cb = WorkCounters()
        ds.query(q, cb)
        cm = WorkCounters()
        base.query(q, cm)
        slack = 4 * (rounds + 1) * len(path) * math.ceil(math.log2(f0) + 4)
        assert cb.total <= cm.total + slack
