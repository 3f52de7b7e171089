import random

import pytest

from ofc2d.counters import WorkCounters
from ofc2d.errors import OutOfBounds, OverlappingSegments, PointOutsideBBox
from ofc2d.gen import random_tiling
from ofc2d.geometry import (
    HORIZONTAL,
    VERTICAL,
    Point,
    Rect,
    Segment,
    Tiling,
    tiling_locate_naive,
    trapezoidal_decompose,
    validate_tiling,
)

from helpers import decompose_oracle, random_segments

BOX = Rect(-1, 0, 16, 0, 16)


def test_decompose_empty():
    t = trapezoidal_decompose(BOX, [])
    assert len(t) == 1
    assert t.rects[0].key() == BOX.key()
    validate_tiling(t)


def test_decompose_single_wall():
    t = trapezoidal_decompose(BOX, [Segment(VERTICAL, 5, 0, 16)])
    assert sorted(r.key() for r in t.rects) == [(0, 5, 0, 16), (5, 16, 0, 16)]
    validate_tiling(t)


def test_decompose_single_horizontal():
    t = trapezoidal_decompose(BOX, [Segment(HORIZONTAL, 7, 0, 16)])
    assert sorted(r.key() for r in t.rects) == [(0, 16, 0, 7), (0, 16, 7, 16)]


def test_decompose_partial_wall_rays():
    # A floating vertical wall: its endpoints shoot rays to the box edges,
    # so the left and right sides stay single cells.
    t = trapezoidal_decompose(BOX, [Segment(VERTICAL, 8, 4, 12)])
    assert {r.key() for r in t.rects} == decompose_oracle(BOX, [Segment(VERTICAL, 8, 4, 12)])
    validate_tiling(t)


def test_decompose_seed7_matches_oracle():
    rng = random.Random(7)
    segs = random_segments(BOX, 10, rng)
    t = trapezoidal_decompose(BOX, segs)
    validate_tiling(t)
    assert {r.key() for r in t.rects} == decompose_oracle(BOX, segs)
    assert len(t) <= 4 * len(segs) + 1


@pytest.mark.parametrize("seed", range(40))
def test_decompose_random_matches_oracle(seed):
    rng = random.Random(seed)
    side = rng.choice([8, 16, 32, 64])
    bbox = Rect(-1, 0, side, 0, side)
    segs = random_segments(bbox, rng.randint(0, 14), rng)
    t = trapezoidal_decompose(bbox, segs)
    validate_tiling(t)
    assert {r.key() for r in t.rects} == decompose_oracle(bbox, segs)
    assert len(t) <= 4 * len(segs) + 1


def test_decompose_rejects_proper_cross():
    segs = [Segment(HORIZONTAL, 8, 2, 14), Segment(VERTICAL, 8, 2, 14)]
    with pytest.raises(OverlappingSegments):
        trapezoidal_decompose(BOX, segs)


def test_decompose_rejects_collinear_overlap():
    segs = [Segment(HORIZONTAL, 8, 2, 10), Segment(HORIZONTAL, 8, 6, 14)]
    with pytest.raises(OverlappingSegments):
        trapezoidal_decompose(BOX, segs)


def test_decompose_allows_shared_endpoint_and_t_junction():
    segs = [
        Segment(HORIZONTAL, 8, 0, 8),
        Segment(VERTICAL, 8, 8, 16),   # L at (8,8)
        Segment(VERTICAL, 4, 4, 8),    # T against the horizontal from below
    ]
    t = trapezoidal_decompose(BOX, segs)
    validate_tiling(t)
    assert {r.key() for r in t.rects} == decompose_oracle(BOX, segs)


def test_decompose_rejects_out_of_bounds():
    with pytest.raises(OutOfBounds):
        trapezoidal_decompose(BOX, [Segment(VERTICAL, 5, 0, 17)])
    with pytest.raises(OutOfBounds):
        trapezoidal_decompose(BOX, [Segment(HORIZONTAL, 17, 0, 4)])


def test_locate_single_rect():
    t = Tiling(BOX, [Rect(42, 0, 16, 0, 16)])
    assert tiling_locate_naive(t, Point(3, 3)) == 42
    assert t.index().locate(Point(3, 3)).id == 42


def test_locate_half_open_boundary():
    t = Tiling(BOX, [Rect(0, 0, 5, 0, 16), Rect(1, 5, 16, 0, 16)])
    # A point on the shared edge belongs to the right rect.
    assert tiling_locate_naive(t, Point(5, 8)) == 1
    assert t.index().locate(Point(5, 8)).id == 1


def test_locate_outside_raises():
    t = Tiling(BOX, [Rect(0, 0, 16, 0, 16)])
    with pytest.raises(PointOutsideBBox):
        tiling_locate_naive(t, Point(16, 0))
    with pytest.raises(PointOutsideBBox):
        t.index().locate(Point(-1, 3))


def test_locate_naive_fast_agree_random():
    rng = random.Random(99)
    bbox = Rect(-1, 0, 64, 0, 64)
    t = random_tiling(bbox, 64, rng)
    validate_tiling(t)
    for _ in range(100):
        p = Point(rng.randrange(64), rng.randrange(64))
        assert tiling_locate_naive(t, p) == t.index().locate(p).id


def test_locate_fast_counts_logarithmic():
    rng = random.Random(5)
    bbox = Rect(-1, 0, 256, 0, 256)
    t = random_tiling(bbox, 512, rng)
    for _ in range(50):
        p = Point(rng.randrange(256), rng.randrange(256))
        c = WorkCounters()
        t.index().locate(p, c)
        assert c.pl_comparisons <= 4 * (512).bit_length()


def test_validate_tiling_catches_gap_and_overlap():
    with pytest.raises(ValueError):
        validate_tiling(Tiling(BOX, [Rect(0, 0, 16, 0, 15)]))
    with pytest.raises(ValueError):
        validate_tiling(
            Tiling(BOX, [Rect(0, 0, 16, 0, 9), Rect(1, 0, 16, 8, 16)])
        )


def test_rect_degenerate_rejected():
    with pytest.raises(ValueError):
        Rect(0, 3, 3, 0, 1)
    with pytest.raises(ValueError):
        Segment(HORIZONTAL, 0, 5, 5)


def test_coordinate_overflow_detected():
    with pytest.raises(OverflowError):
        Rect(0, 0, 1 << 63, 0, 1)
