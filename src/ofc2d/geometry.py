"""Exact integer rectangle geometry.

Coordinates are 64-bit signed integers in rank space.  All rectangles are
half-open on their high sides: a point ``p`` lies in a rect iff
``xlo <= p.x < xhi and ylo <= p.y < yhi``, which resolves every boundary tie
deterministically.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from operator import attrgetter

from .errors import OutOfBounds, OverlappingSegments, PointOutsideBBox

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

HORIZONTAL = "h"
VERTICAL = "v"


def _check_i64(*values):
    for v in values:
        if not (INT64_MIN <= v <= INT64_MAX):
            raise OverflowError(f"coordinate {v} does not fit in 64 bits")


@dataclass(frozen=True, slots=True)
class Point:
    x: int
    y: int


@dataclass(frozen=True, slots=True)
class Rect:
    id: int
    xlo: int
    xhi: int
    ylo: int
    yhi: int

    def __post_init__(self):
        _check_i64(self.xlo, self.xhi, self.ylo, self.yhi)
        if self.xlo >= self.xhi or self.ylo >= self.yhi:
            raise ValueError(f"degenerate rect {self}")

    def contains(self, p: Point) -> bool:
        return self.xlo <= p.x < self.xhi and self.ylo <= p.y < self.yhi

    @property
    def area(self) -> int:
        return (self.xhi - self.xlo) * (self.yhi - self.ylo)

    def intersects(self, other: "Rect") -> bool:
        return (
            self.xlo < other.xhi
            and other.xlo < self.xhi
            and self.ylo < other.yhi
            and other.ylo < self.yhi
        )

    def key(self):
        """Geometry-only tuple, ignoring the id."""
        return (self.xlo, self.xhi, self.ylo, self.yhi)


@dataclass(frozen=True, slots=True)
class Segment:
    axis: str  # HORIZONTAL or VERTICAL
    fixed: int
    lo: int
    hi: int

    def __post_init__(self):
        _check_i64(self.fixed, self.lo, self.hi)
        if self.axis not in (HORIZONTAL, VERTICAL):
            raise ValueError(f"bad axis {self.axis!r}")
        if self.lo >= self.hi:
            raise ValueError(f"degenerate segment {self}")


class Tiling:
    """A set of pairwise-disjoint rects exactly covering ``bbox``.

    Immutable after construction; the slab index for fast location is built
    lazily on first use and cached.
    """

    __slots__ = ("bbox", "rects", "_index", "_scan")

    def __init__(self, bbox: Rect, rects):
        self.bbox = bbox
        self.rects = tuple(rects)
        self._index = None
        self._scan = None

    def __len__(self):
        return len(self.rects)

    def index(self) -> "SlabIndex":
        if self._index is None:
            self._index = SlabIndex(self.bbox, self.rects)
        return self._index

    def scan_lists(self):
        """Parallel coordinate lists for the naive linear scan."""
        if self._scan is None:
            self._scan = (
                [r.xlo for r in self.rects],
                [r.xhi for r in self.rects],
                [r.ylo for r in self.rects],
                [r.yhi for r in self.rects],
            )
        return self._scan


def search_cost(m: int) -> int:
    """Comparison count charged for one binary search over ``m`` keys."""
    return max(1, m.bit_length())


class SlabIndex:
    """Sorted-slab point location over disjoint rects.

    Binary search over x slabs, then over the slab's rects sorted by ylo:
    O(log n) comparisons per query.  Each rect must meet ``bbox`` but may
    stick out of it; it is indexed as its part inside the bbox, the same as
    a copy clipped to the bbox would be, without building that copy.
    """

    __slots__ = ("bbox", "xs", "slab_ylos", "slab_rects", "entries")

    def __init__(self, bbox: Rect, rects):
        self.bbox = bbox
        xlo, xhi = bbox.xlo, bbox.xhi
        xs = {x for r in rects for x in (r.xlo, r.xhi) if xlo < x < xhi}
        xs.add(xlo)
        xs.add(xhi)
        self.xs = xs = sorted(xs)
        nslab = len(xs) - 1
        # An x edge missing from ``xs`` lies outside the bbox, so the slab
        # range of a rect sticking out is clamped to the first or last slab.
        slab_of = {x: i for i, x in enumerate(xs)}
        # Filling the slabs in ylo order leaves every slab sorted: disjoint
        # rects meeting one slab have distinct ylos.  A rect starting below
        # the bbox comes first in its slabs, and its ylo, like its clipped
        # one, is at most the y of any point ``locate`` searches for.
        slab_rects = [[] for _ in range(nslab)]
        for r in sorted(rects, key=attrgetter("ylo")):
            for i in range(slab_of.get(r.xlo, 0), slab_of.get(r.xhi, nslab)):
                slab_rects[i].append(r)
        self.slab_rects = slab_rects
        self.slab_ylos = [[r.ylo for r in b] for b in slab_rects]
        self.entries = sum(map(len, slab_rects))

    def locate(self, p: Point, counters=None) -> Rect:
        if not self.bbox.contains(p):
            raise PointOutsideBBox(f"{p} outside {self.bbox}")
        i = bisect.bisect_right(self.xs, p.x) - 1
        ylos = self.slab_ylos[i]
        j = bisect.bisect_right(ylos, p.y) - 1
        if counters is not None:
            counters.pl_comparisons += search_cost(len(self.xs)) + search_cost(
                max(1, len(ylos))
            )
        if j < 0:
            raise PointOutsideBBox(f"{p} not covered in slab {i}")
        r = self.slab_rects[i][j]
        if not r.contains(p):
            raise PointOutsideBBox(f"{p} not covered (gap at slab {i})")
        return r


def tiling_locate_naive(t: Tiling, p: Point, counters=None) -> int:
    """Linear scan; the ground-truth primitive.

    Deliberately shares nothing with the indexed path beyond the containment
    predicate.
    """
    if not t.bbox.contains(p):
        raise PointOutsideBBox(f"{p} outside {t.bbox}")
    xlo, xhi, ylo, yhi = t.scan_lists()
    x, y = p.x, p.y
    for i in range(len(t.rects)):
        if xlo[i] <= x < xhi[i] and ylo[i] <= y < yhi[i]:
            if counters is not None:
                counters.pl_comparisons += i + 1
            return t.rects[i].id
    raise PointOutsideBBox(f"{p} not covered by tiling")


def validate_tiling(t: Tiling, check_ids=True):
    """Raise ValueError unless ``t`` is an exact disjoint cover of its bbox."""
    bbox = t.bbox
    area = 0
    xs = {bbox.xlo, bbox.xhi}
    for r in t.rects:
        if r.xlo < bbox.xlo or r.xhi > bbox.xhi or r.ylo < bbox.ylo or r.yhi > bbox.yhi:
            raise ValueError(f"rect {r} leaves bbox {bbox}")
        area += r.area
        xs.add(r.xlo)
        xs.add(r.xhi)
    if area != bbox.area:
        raise ValueError(f"area sum {area} != bbox area {bbox.area}")
    if check_ids:
        ids = {r.id for r in t.rects}
        if len(ids) != len(t.rects):
            raise ValueError("duplicate rect ids")
    # Disjointness + coverage per x-slab: the rects covering each slab must
    # partition the bbox's y extent exactly.
    xs = sorted(xs)
    buckets = [[] for _ in range(len(xs) - 1)]
    for r in t.rects:
        i0 = bisect.bisect_left(xs, r.xlo)
        i1 = bisect.bisect_left(xs, r.xhi)
        for i in range(i0, i1):
            buckets[i].append((r.ylo, r.yhi))
    for i, b in enumerate(buckets):
        b.sort()
        y = bbox.ylo
        for lo, hi in b:
            if lo != y:
                raise ValueError(
                    f"slab [{xs[i]},{xs[i+1]}): gap or overlap at y={y} (next rect ylo={lo})"
                )
            y = hi
        if y != bbox.yhi:
            raise ValueError(f"slab [{xs[i]},{xs[i+1]}): uncovered above y={y}")


def _merge_intervals(pieces):
    pieces = sorted(pieces)
    out = []
    for lo, hi in pieces:
        if lo >= hi:
            continue
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return out


def _validate_segments(bbox: Rect, segments):
    horiz, vert = [], []
    for s in segments:
        if s.axis == HORIZONTAL:
            if not (bbox.xlo <= s.lo and s.hi <= bbox.xhi and bbox.ylo <= s.fixed <= bbox.yhi):
                raise OutOfBounds(f"segment {s} leaves bbox {bbox}")
            horiz.append(s)
        else:
            if not (bbox.ylo <= s.lo and s.hi <= bbox.yhi and bbox.xlo <= s.fixed <= bbox.xhi):
                raise OutOfBounds(f"segment {s} leaves bbox {bbox}")
            vert.append(s)
    # Collinear overlaps.
    lines = {}
    for s in segments:
        lines.setdefault((s.axis, s.fixed), []).append((s.lo, s.hi))
    for (axis, fixed), spans in lines.items():
        spans.sort()
        for k in range(1, len(spans)):
            if spans[k][0] < spans[k - 1][1]:
                raise OverlappingSegments(
                    f"collinear overlap on {axis}={fixed}: {spans[k-1]} vs {spans[k]}"
                )
    # Proper crossings (interior/interior).
    hs = sorted(horiz, key=lambda s: s.fixed)
    hys = [s.fixed for s in hs]
    for v in vert:
        k0 = bisect.bisect_right(hys, v.lo)
        k1 = bisect.bisect_left(hys, v.hi)
        for k in range(k0, k1):
            h = hs[k]
            if h.lo < v.fixed < h.hi:
                raise OverlappingSegments(f"segments {h} and {v} properly cross")
    return horiz, vert


def trapezoidal_decompose(bbox: Rect, segments) -> Tiling:
    """Refine an orthogonal subdivision into a rectangle tiling.

    Vertical rays are shot up and down from every segment endpoint, stopping
    at the first edge (or the bbox).  The resulting faces are rectangles; at
    most ``4 * len(segments) + 1`` of them.
    """
    horiz, vert = _validate_segments(bbox, segments)

    events = {}

    def ev(x):
        e = events.get(x)
        if e is None:
            e = ([], [], [])  # starts, ends, verticals
            events[x] = e
        return e

    for h in horiz:
        ev(h.lo)[0].append(h)
        ev(h.hi)[1].append(h)
    for v in vert:
        ev(v.fixed)[2].append(v)

    act = []  # sorted y values of active horizontals
    open_cells = {}  # (ylo, yhi) -> xstart
    open_cells[(bbox.ylo, bbox.yhi)] = bbox.xlo
    out = []

    def emit(ylo, yhi, x0, x1):
        if x1 > x0:
            out.append((x0, x1, ylo, yhi))

    for x in sorted(events):
        starts, ends, verts = events[x]
        # Ray stops: bbox edges, every horizontal whose closed span contains x
        # (active ones, including enders; starters begin here), and vertical
        # segment endpoints at this x.
        stops = {bbox.ylo, bbox.yhi}
        stops.update(act)
        stops.update(s.fixed for s in starts)
        for v in verts:
            stops.add(v.lo)
            stops.add(v.hi)
        stops = sorted(stops)

        pieces = [[v.lo, v.hi] for v in verts]
        vertex_ys = [s.fixed for s in starts]
        vertex_ys += [s.fixed for s in ends]
        for v in verts:
            vertex_ys.append(v.lo)
            vertex_ys.append(v.hi)
        for y0 in vertex_ys:
            k = bisect.bisect_right(stops, y0)
            if k < len(stops):
                pieces.append([y0, stops[k]])  # upward ray
            k = bisect.bisect_left(stops, y0)
            if k > 0:
                pieces.append([stops[k - 1], y0])  # downward ray
        wall = _merge_intervals(pieces)

        # Close every open cell the wall overlaps with positive measure.
        closed = []
        if wall:
            for cell, x0 in open_cells.items():
                lo, hi = cell
                for a, b in wall:
                    if max(lo, a) < min(hi, b):
                        closed.append(cell)
                        break
        for cell in closed:
            x0 = open_cells.pop(cell)
            emit(cell[0], cell[1], x0, x)

        # Update the active set.
        for s in ends:
            k = bisect.bisect_left(act, s.fixed)
            del act[k]
        for s in starts:
            bisect.insort(act, s.fixed)

        # Reopen the closed region, partitioned by the new active set.
        for lo, hi in _merge_intervals([list(c) for c in closed]):
            k0 = bisect.bisect_right(act, lo)
            k1 = bisect.bisect_left(act, hi)
            bounds = [lo] + act[k0:k1] + [hi]
            for i in range(len(bounds) - 1):
                open_cells[(bounds[i], bounds[i + 1])] = x

    for cell, x0 in open_cells.items():
        emit(cell[0], cell[1], x0, bbox.xhi)

    out.sort()
    rects = [Rect(i, x0, x1, y0, y1) for i, (x0, x1, y0, y1) in enumerate(out)]
    tiling = Tiling(bbox, rects)
    assert len(rects) <= 4 * len(segments) + 1, (len(rects), len(segments))
    return tiling
