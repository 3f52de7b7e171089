import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from ofc2d.counters import WorkCounters
from ofc2d.errors import OutOfBounds, OverlappingSegments, PointOutsideBBox
from ofc2d.gen import random_tiling
from ofc2d.geometry import (
    HORIZONTAL,
    INT64_MAX,
    INT64_MIN,
    VERTICAL,
    Point,
    Rect,
    Segment,
    Tiling,
    tiling_locate_naive,
    trapezoidal_decompose,
    validate_tiling,
)

from helpers import (
    bbox_of,
    comb,
    covers_exactly,
    decompose_oracle,
    guillotine_tilings,
    pinwheel,
    random_segments,
)

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
    # Right area, one overlap and one gap: the message names an odd corner.
    with pytest.raises(ValueError, match=r"\(7, 0\)"):
        validate_tiling(Tiling(BOX, [Rect(0, 0, 8, 0, 16), Rect(1, 7, 15, 0, 16)]))


@st.composite
def corrupted_tilings(draw):
    """A guillotine tiling of an 8x8 box with one corruption: one rect's
    edge moved, a rect added once or twice (a copy of one or a random one),
    one rect shifted, its sides swapped, its id duplicated, or one of its
    sides pushed out of the bbox.  Most corruptions can draw a no-op, so
    exact covers occur.  A change to one rect, or one added rect, changes
    the set of odd corners; a rect added twice does not, so only the area
    sum refuses it."""
    t = draw(guillotine_tilings(bbox_of(8), 8))
    rects = list(t.rects)
    i = draw(st.integers(0, len(rects) - 1))
    r = rects[i]
    kind = draw(st.sampled_from(["edge", "add", "shift", "swap", "id", "leave"]))
    side = draw(st.integers(0, 3))
    key = list(r.key())
    if kind == "edge":
        lo, hi = (0, key[side + 1] - 1) if side % 2 == 0 else (key[side - 1] + 1, 8)
        key[side] = draw(st.integers(lo, hi))
    elif kind == "add":
        if draw(st.booleans()):
            xlo, xhi, ylo, yhi = rects[draw(st.integers(0, len(rects) - 1))].key()
        else:
            xlo, xhi = sorted(draw(st.lists(st.integers(0, 8), min_size=2, max_size=2,
                                            unique=True)))
            ylo, yhi = sorted(draw(st.lists(st.integers(0, 8), min_size=2, max_size=2,
                                            unique=True)))
        for _ in range(draw(st.integers(1, 2))):
            rects.append(Rect(len(rects), xlo, xhi, ylo, yhi))
    elif kind == "shift":
        dx = draw(st.integers(-key[0], 8 - key[1]))
        dy = draw(st.integers(-key[2], 8 - key[3]))
        key = [key[0] + dx, key[1] + dx, key[2] + dy, key[3] + dy]
    elif kind == "swap":
        w, h = key[1] - key[0], key[3] - key[2]
        key = [key[0], key[0] + h, key[2], key[2] + w]
    elif kind == "leave":
        k = draw(st.integers(1, 2))
        key[side] = -k if side % 2 == 0 else 8 + k
    rid = rects[draw(st.integers(0, len(rects) - 1))].id if kind == "id" else r.id
    rects[i] = Rect(rid, *key)
    return Tiling(t.bbox, rects)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(corrupted_tilings())
def test_validate_tiling_accepts_exactly_the_exact_covers(t):
    """``validate_tiling`` accepts a tiling exactly when a count of covers
    per unit cell finds the bbox covered once and nothing outside it."""
    try:
        validate_tiling(t)
    except ValueError:
        accepted = False
    else:
        accepted = True
    assert accepted == covers_exactly(t), t.rects


@pytest.mark.parametrize("t", [pinwheel(), comb(4)], ids=["pinwheel", "comb"])
def test_validate_tiling_accepts_pinwheel_and_comb(t):
    assert covers_exactly(t)
    validate_tiling(t)


def test_rect_degenerate_rejected():
    with pytest.raises(ValueError):
        Rect(0, 3, 3, 0, 1)
    with pytest.raises(ValueError):
        Segment(HORIZONTAL, 0, 5, 5)


def test_coordinate_overflow_detected():
    with pytest.raises(OverflowError):
        Rect(0, 0, 1 << 63, 0, 1)
    # Out of range and degenerate at once: the range check comes first.
    with pytest.raises(OverflowError):
        Rect(0, 1 << 63, 0, 0, 1)
    with pytest.raises(OverflowError):
        Rect(0, 0, 1, -(1 << 64), -(1 << 64))
    r = Rect(0, INT64_MIN, INT64_MAX, INT64_MIN, INT64_MAX)
    assert r.key() == (INT64_MIN, INT64_MAX, INT64_MIN, INT64_MAX)


@dataclasses.dataclass(frozen=True)
class _PlainRect:
    """The fields of ``Rect`` in a dataclass with generated methods."""

    id: int
    xlo: int
    xhi: int
    ylo: int
    yhi: int


def test_rect_behaves_as_a_frozen_dataclass():
    r = Rect(7, -3, 5, 2, 9)
    plain = _PlainRect(7, -3, 5, 2, 9)
    assert dataclasses.astuple(r) == dataclasses.astuple(plain)
    assert repr(r) == repr(plain).replace("_PlainRect", "Rect")
    assert hash(r) == hash(plain) == hash(Rect(7, -3, 5, 2, 9))
    assert r == Rect(7, -3, 5, 2, 9)
    assert r != Rect(8, -3, 5, 2, 9) and r != Rect(7, -3, 5, 2, 10)
    assert r != plain and r != (7, -3, 5, 2, 9)
    assert Rect(id=7, xlo=-3, xhi=5, ylo=2, yhi=9) == r
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.xlo = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.id = 0
    assert not hasattr(r, "__dict__")
