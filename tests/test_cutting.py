import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ofc2d import cutting
from ofc2d.config import C_CONF, C_CUT
from ofc2d.counters import WorkCounters
from ofc2d.cutting import ConflictIndex, Cutting, cutting_build, verify_cutting
from ofc2d.errors import InvalidParameter, PointOutsideBBox
from ofc2d.gen import random_tiling
from ofc2d.geometry import Point, Rect, Tiling, trapezoidal_decompose

from helpers import (
    assert_conflicts_cover_cells,
    bbox_of,
    clipped_slab_index,
    comb,
    decompose_oracle,
    guillotine_tilings,
    pinwheel,
)


def make_source(n, seed, side=None):
    rng = random.Random(seed)
    if side is None:
        side = 1
        while side * side < 4 * n:
            side *= 2
    return random_tiling(Rect(-1, 0, side, 0, side), n, rng), rng


def test_coarsest_cutting():
    src, rng = make_source(64, 1)
    c = cutting_build(src, 1, rng)
    assert len(c.cells) == 1
    assert c.cells.rects[0].key() == src.bbox.key()
    assert sorted(r.id for r in c.conflicts[0]) == list(range(64))
    verify_cutting(c)
    assert_conflicts_cover_cells(c)


def test_finest_cutting():
    src, rng = make_source(128, 2)
    c = cutting_build(src, 128, rng)
    assert c.max_conflict() <= C_CONF
    verify_cutting(c)
    assert_conflicts_cover_cells(c)


def test_seed11_budgets():
    src, _ = make_source(1024, 11)
    c = cutting_build(src, 32, random.Random(11))
    assert len(c.cells) <= C_CUT * 32 == 128
    # Direct per-cell intersection recount, independent of the build path.
    for i, cell in enumerate(c.cells.rects):
        direct = [r.id for r in src.rects if r.intersects(cell)]
        assert sorted(r.id for r in c.conflicts[i]) == sorted(direct)
        assert len(direct) <= C_CONF * 1024 // 32
    verify_cutting(c)
    assert_conflicts_cover_cells(c)


def test_invalid_r():
    src, rng = make_source(16, 3)
    with pytest.raises(InvalidParameter):
        cutting_build(src, 0, rng)
    with pytest.raises(InvalidParameter):
        cutting_build(src, 17, rng)


@pytest.mark.parametrize("seed,n,r", [(4, 256, 8), (5, 256, 64), (6, 1024, 100), (7, 500, 22)])
def test_random_cuttings_verify(seed, n, r):
    src, rng = make_source(n, seed)
    c = cutting_build(src, r, rng)
    verify_cutting(c)
    assert_conflicts_cover_cells(c)


def test_failed_verification_is_not_retried(monkeypatch):
    """A cutting that fails verification raises ValueError on the first
    sample instead of drawing another: only the cell budget is retried."""
    real_split, real_decompose = cutting._split_overfull, cutting.trapezoidal_decompose
    decompositions = []

    def decompose(*args):
        decompositions.append(1)
        return real_decompose(*args)

    monkeypatch.setattr(cutting, "_split_overfull", lambda *a: real_split(*a)[1:])
    monkeypatch.setattr(cutting, "trapezoidal_decompose", decompose)
    src, rng = make_source(256, 4)
    with pytest.raises(ValueError):
        cutting_build(src, 8, rng)
    assert len(decompositions) == 1


def assert_edges_decompose(bbox, rects):
    """The edge segments of ``rects`` pass ``trapezoidal_decompose``'s
    validator, no two overlap on one line, every cell lies inside or outside
    each rect, and the cells are the brute-force decomposition's."""
    segs = cutting._edge_segments(rects)
    cells = trapezoidal_decompose(bbox, segs)
    lines = {}
    for s in segs:
        lines.setdefault((s.axis, s.fixed), []).append((s.lo, s.hi))
    for spans in lines.values():
        spans.sort()
        assert all(hi <= lo for (_, hi), (lo, _) in zip(spans, spans[1:])), spans
    for cell in cells.rects:
        for r in rects:
            assert not r.intersects(cell) or (
                r.xlo <= cell.xlo and cell.xhi <= r.xhi
                and r.ylo <= cell.ylo and cell.yhi <= r.yhi), (r, cell)
    assert {c.key() for c in cells.rects} == decompose_oracle(bbox, segs)


@st.composite
def tilings_and_samples(draw):
    """A guillotine tiling and any subset of its rects, from none to all."""
    tiling = draw(guillotine_tilings(bbox_of(8), 16))
    keep = draw(st.lists(st.booleans(), min_size=len(tiling), max_size=len(tiling)))
    return tiling.bbox, [r for r, k in zip(tiling.rects, keep) if k]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tilings_and_samples())
def test_edge_segments_decompose_any_sample(case):
    assert_edges_decompose(*case)


def four_corner_grid():
    """A 2x2 grid: four rects meet at the centre, where their edges cross."""
    return Tiling(bbox_of(2), [Rect(0, 0, 1, 0, 1), Rect(1, 1, 2, 0, 1),
                               Rect(2, 0, 1, 1, 2), Rect(3, 1, 2, 1, 2)])


@pytest.mark.parametrize("t", [four_corner_grid(), pinwheel(), comb(4)],
                         ids=["four-corner", "pinwheel", "comb"])
def test_edge_segments_decompose_every_subset(t):
    for k in range(len(t) + 1):
        for rects in itertools.combinations(t.rects, k):
            assert_edges_decompose(t.bbox, rects)


@st.composite
def tilings_and_targets(draw):
    """A guillotine tiling and a cutting target r in [1, n]."""
    tiling = draw(guillotine_tilings(bbox_of(16), 12))
    return tiling, draw(st.integers(1, len(tiling)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tilings_and_targets(), st.integers(0, 2**32))
def test_conflict_lists_hold_the_source_rects(case, seed):
    """Each cell's conflict list is the source rects meeting the cell, the
    objects themselves in source order; a one-cell cutting's list is the
    source's own sequence."""
    source, r = case
    c = cutting_build(source, r, random.Random(seed))
    for cell, conf in zip(c.cells.rects, c.conflicts, strict=True):
        expected = [s for s in source.rects if s.intersects(cell)]
        assert len(conf) == len(expected)
        assert all(a is b for a, b in zip(conf, expected))
    if r == 1:
        assert c.conflicts[0] is source.rects


def test_locate_agrees_with_scan():
    src, rng = make_source(512, 8)
    c = cutting_build(src, 30, rng)
    side = src.bbox.xhi
    for _ in range(100):
        p = Point(rng.randrange(side), rng.randrange(side))
        ci = c.cells.index().locate(p).id
        conf = c.conflicts[ci]
        scan = [cell for cell in c.cells.rects if cell.contains(p)]
        assert len(scan) == 1 and scan[0].id == ci
        # The source rect containing p is in the located cell's conflicts.
        true_src = next(r.id for r in src.rects if r.contains(p))
        assert true_src in {r.id for r in conf}


def test_locate_half_open_and_outside():
    bbox = Rect(-1, 0, 8, 0, 8)
    cells = Tiling(bbox, [Rect(0, 0, 4, 0, 8), Rect(1, 4, 8, 0, 8)])
    src = Tiling(bbox, [Rect(0, 0, 4, 0, 8), Rect(1, 4, 8, 0, 8)])
    c = Cutting(cells, [[r] for r in src.rects], src, 2)
    assert c.cells.index().locate(Point(4, 3)).id == 1
    with pytest.raises(PointOutsideBBox):
        c.cells.index().locate(Point(8, 0))


def test_conflict_index_locates_source_rect():
    src, rng = make_source(256, 9)
    c = cutting_build(src, 16, rng)
    side = src.bbox.xhi
    for _ in range(100):
        p = Point(rng.randrange(side), rng.randrange(side))
        ci = c.cells.index().locate(p).id
        w = WorkCounters()
        rid = c.locate(ci, p, w)
        assert rid == next(r.id for r in src.rects if r.contains(p))
        assert w.pl_comparisons > 0
        ref = clipped_slab_index(c.cells.rects[ci], c.conflicts[ci])
        index = c._ci[ci]
        assert index.index.entries == ref.entries
        # A second locate in the cell builds no new index.
        built = len(c._ci)
        assert c.locate(ci, p) == rid
        assert len(c._ci) == built and c._ci[ci] is index


def slab_ids(index):
    s = index.starts
    return [[r.id for r in index.rects[a:b]] for a, b in zip(s, s[1:])]


def locate_outcome(index, p):
    w = WorkCounters()
    try:
        rid = index.locate(p, w).id
    except PointOutsideBBox:
        rid = PointOutsideBBox
    return rid, w.pl_comparisons


@st.composite
def conflict_cases(draw):
    """A guillotine tiling, a cell anywhere inside its bbox and the tiling
    rects meeting the cell in any order, one of them dropped one time in
    four."""
    tiling = draw(guillotine_tilings(bbox_of(16), 10))
    xlo, xhi = sorted(draw(st.lists(st.integers(0, 16), min_size=2, max_size=2,
                                    unique=True)))
    ylo, yhi = sorted(draw(st.lists(st.integers(0, 16), min_size=2, max_size=2,
                                    unique=True)))
    cell = Rect(-1, xlo, xhi, ylo, yhi)
    rects = draw(st.permutations([r for r in tiling.rects if r.intersects(cell)]))
    if not draw(st.integers(0, 3)):
        del rects[draw(st.integers(0, len(rects) - 1))]
    return cell, rects


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(conflict_cases())
def test_conflict_index_matches_clipped_reference(case):
    """Indexing the unclipped conflict rects gives the same slabs, entries,
    answers and comparison counts as indexing copies clipped to the cell,
    on every point of the cell and one unit around it."""
    cell, rects = case
    index = ConflictIndex(cell, rects).index
    ref = clipped_slab_index(cell, rects)
    assert index.xs == ref.xs
    assert slab_ids(index) == slab_ids(ref)
    assert index.entries == ref.entries
    starts = index.starts
    assert starts[0] == 0 and len(starts) == len(index.xs)
    assert all(a <= b for a, b in zip(starts, starts[1:]))
    assert starts[-1] == index.entries == len(index.ylos)
    assert index.ylos == [r.ylo for r in index.rects]
    for a, b in zip(starts, starts[1:]):
        assert index.ylos[a:b] == sorted(index.ylos[a:b])
    for x in range(cell.xlo - 1, cell.xhi + 1):
        for y in range(cell.ylo - 1, cell.yhi + 1):
            p = Point(x, y)
            assert locate_outcome(index, p) == locate_outcome(ref, p), p


def test_counters_logarithmic_in_cells():
    src, rng = make_source(2048, 10)
    c = cutting_build(src, 64, rng)
    side = src.bbox.xhi
    for _ in range(50):
        p = Point(rng.randrange(side), rng.randrange(side))
        w = WorkCounters()
        ci = c.cells.index().locate(p, w).id
        assert w.pl_comparisons <= 4 * (C_CUT * 64).bit_length()
        w = WorkCounters()
        c.locate(ci, p, w)
        assert w.cells_located == 1
