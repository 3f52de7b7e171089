import gc
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ofc2d.config import C_STAB2, C_STAB3
from ofc2d.counters import WorkCounters
from ofc2d.errors import InvalidParameter
from ofc2d.geometry import Point, Rect
from ofc2d.stabbing import Stab2D, Stab3D

from helpers import stab2d_walk, stab3d_walk, stab_oracle_2d, stab_oracle_3d


def random_rects(count, rng, span=1000):
    """(rect, payload) items; payload i for the i-th rect."""
    out = []
    for i in range(count):
        x = rng.randint(0, span - 1)
        y = rng.randint(0, span - 1)
        r = Rect(i, x, x + rng.randint(1, span // 4), y, y + rng.randint(1, span // 4))
        out.append((r, i))
    return out


def random_boxes(count, rng, span=1000):
    """(rect, zlo, zhi, payload) items; payload i for the i-th box."""
    out = []
    for i in range(count):
        x, y, z = (rng.randint(0, span - 1) for _ in range(3))
        d = lambda: rng.randint(1, span // 4)
        out.append((Rect(i, x, x + d(), y, y + d()), z, z + d(), i))
    return out


def test_stab2d_empty():
    s = Stab2D([])
    assert s.query(Point(0, 0)) == []


def test_stab2d_single():
    r = Rect(7, 0, 10, 0, 10)
    s = Stab2D([(r, 7)])
    assert s.query(Point(5, 5)) == [7]
    assert s.query(Point(10, 5)) == []  # half-open high edge
    assert s.query(Point(0, 0)) == [7]


def _points(kind, rects, rng):
    xs = sorted({x for r, _ in rects for x in (r.xlo, r.xhi)})
    ys = sorted({y for r, _ in rects for y in (r.ylo, r.yhi)})
    if kind == "random":
        return [Point(rng.randint(-10, 1300), rng.randint(-10, 1300)) for _ in range(200)]
    if kind == "slab_edges":
        return [Point(rng.choice(xs), rng.choice(ys)) for _ in range(200)]
    if kind == "high_edge":
        return [Point(xs[-1] - d, rng.choice(ys)) for d in (0, 1) for _ in range(20)]
    assert kind == "outside"
    return [Point(x, rng.randint(0, 1000)) for x in (xs[0] - 1, xs[-1] + 1)
            for _ in range(20)]


@pytest.mark.parametrize("kind", ["random", "slab_edges", "high_edge", "outside"])
def test_stab2d_random_matches_oracle(kind):
    """Hits match the linear scan, and the flat slab paths charge the same
    stab nodes as the root-to-leaf walk."""
    rng = random.Random(3)
    rects = random_rects(100, rng)
    s = Stab2D(rects)
    walk = stab2d_walk(rects)
    for p in _points(kind, rects, rng):
        c, cw = WorkCounters(), WorkCounters()
        hits = sorted(s.query(p, c))
        assert hits == sorted(stab_oracle_2d(rects, p))
        assert hits == sorted(walk(p, cw))
        assert c == cw


def test_stab2d_entry_bound():
    rng = random.Random(17)
    for n in (16, 128, 1024):
        rects = random_rects(n, rng)
        s = Stab2D(rects)
        assert s.stored_entries <= C_STAB2 * n * math.ceil(math.log2(n)) + C_STAB2 * n


def test_stab2d_output_sensitive_counters():
    rng = random.Random(23)
    rects = random_rects(1024, rng)
    s = Stab2D(rects)
    for _ in range(100):
        p = Point(rng.randint(0, 1250), rng.randint(0, 1250))
        c = WorkCounters()
        hits = s.query(p, c)
        assert c.stab_nodes_visited <= 6 * math.ceil(math.log2(1024)) ** 2 + 4 * len(hits)


def test_stab3d_rejects_bad_fanout():
    with pytest.raises(InvalidParameter):
        Stab3D([], 1)


def test_stab3d_empty():
    s = Stab3D([], 2)
    assert s.query(Point(0, 0), 0) == []


def test_stab3d_unit_cube():
    s = Stab3D([(Rect(9, 0, 2, 0, 2), 0, 2, 9)], 4)
    assert s.query(Point(1, 1), 1) == [9]
    assert s.query(Point(1, 1), 2) == []


@pytest.mark.parametrize("H", [2, 3, 8])
def test_stab3d_random_matches_oracle(H):
    rng = random.Random(31 + H)
    boxes = random_boxes(500, rng)
    s = Stab3D(boxes, H)
    walk = stab3d_walk(boxes, H)
    for _ in range(100):
        x, y, z = (rng.randint(-10, 1300) for _ in range(3))
        p = Point(x, y)
        c, cw = WorkCounters(), WorkCounters()
        hits = sorted(s.query(p, z, c))
        assert hits == sorted(stab_oracle_3d(boxes, p, z))
        assert hits == sorted(walk(p, z, cw))
        assert c == cw


def test_stab3d_fanout_law():
    rng = random.Random(41)
    boxes = random_boxes(500, rng)
    for H in (2, 4, 16):
        s = Stab3D(boxes, H)
        m = len(s.zs) - 1
        assert len(s.zdepth) == m
        limit = math.ceil(math.log(m, H)) + 1
        assert max(s.zdepth) <= limit


def test_stab3d_entry_bound():
    rng = random.Random(43)
    n, H = 512, 8
    boxes = random_boxes(n, rng)
    s = Stab3D(boxes, H)
    logn = math.ceil(math.log2(n))
    assert s.stored_entries <= C_STAB3 * n * H * max(1, logn / math.log2(H)) * logn


SPAN = 8


@st.composite
def rects(draw):
    x = draw(st.integers(0, SPAN - 1))
    y = draw(st.integers(0, SPAN - 1))
    return Rect(0, x, draw(st.integers(x + 1, SPAN)), y, draw(st.integers(y + 1, SPAN)))


@st.composite
def items_2d(draw):
    """(rect, payload) items over a small grid; some items are repeated
    outright and payloads come from a small pool, so both repeat."""
    items = draw(st.lists(st.tuples(rects(), st.integers(0, 3)), max_size=12))
    return items + draw(st.lists(st.sampled_from(items), max_size=4)) if items else items


@st.composite
def items_3d(draw):
    items = []
    for rect, payload in draw(items_2d()):
        zlo = draw(st.integers(0, SPAN - 1))
        items.append((rect, zlo, draw(st.integers(zlo + 1, SPAN)), payload))
    return items + draw(st.lists(st.sampled_from(items), max_size=4)) if items else items


coords = st.integers(-1, SPAN)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(items_2d(), coords, coords)
def test_stab2d_reports_each_payload_once_per_box(items, x, y):
    """Hits match the linear scan, and the flat slab paths charge the same
    counters as the root-to-leaf walk."""
    p = Point(x, y)
    c, cw = WorkCounters(), WorkCounters()
    hits = sorted(Stab2D(items).query(p, c))
    assert hits == sorted(stab_oracle_2d(items, p))
    assert hits == sorted(stab2d_walk(items)(p, cw))
    assert c == cw


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(items_3d(), st.integers(2, 5), coords, coords, coords)
def test_stab3d_reports_each_payload_once_per_box(items, H, x, y, z):
    """Hits match the linear scan, and the full range tree charges the same
    counters as the walk over a tree split only where inserts pass."""
    p = Point(x, y)
    c, cw = WorkCounters(), WorkCounters()
    hits = sorted(Stab3D(items, H).query(p, z, c))
    assert hits == sorted(stab_oracle_3d(items, p, z))
    assert hits == sorted(stab3d_walk(items, H)(p, z, cw))
    assert c == cw


def test_builds_leave_no_cyclic_garbage():
    """A build frees its scratch buckets and recursive helpers by reference
    counting: the collector finds nothing after Stab2D or Stab3D is built."""
    rng = random.Random(9)
    rects, boxes = random_rects(60, rng), random_boxes(60, rng)
    gc.collect()
    gc.disable()
    try:
        built = [Stab2D(rects), Stab3D(boxes, 3)]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert all(b.stored_entries for b in built)
