"""Coarse covers with bounded conflict lists over a rectangle tiling.

``cutting_build(source, r, rng)`` returns ~r cells tiling the source
bounding box such that each cell meets at most ``C_CONF * n / r`` source
rects.  The construction samples source rects, trapezoidal-decomposes their
edge set and splits any over-full cell at a median conflict edge.  It
retries with fresh randomness while the split leaves more than ``C_CUT * r``
cells, then verifies the result; a failed verification is a defect and
raises ``ValueError``.
"""

from __future__ import annotations

import bisect
import random

from .config import C_CONF, C_CUT, CUTTING_MAX_RETRIES, SAMPLE_RHO
from .errors import InvalidParameter, RetryExhausted
from .geometry import (
    HORIZONTAL,
    VERTICAL,
    Rect,
    Segment,
    SlabIndex,
    Tiling,
    trapezoidal_decompose,
    validate_tiling,
)


def _edge_segments(rects):
    """Boundary edges of disjoint rects as a valid orthogonal subdivision.

    On each line the rect-edge pieces are sorted and merged only where they
    overlap (``a < hi``); pieces that merely touch stay apart.  So no two
    segments properly cross, and none needs splitting: a point inside a
    merged horizontal segment lies inside the horizontal edge of some rect
    A, because a merge never bridges a mere touch, and in the same way
    inside a vertical edge of some rect B.  A and B would then both fill one
    quadrant at that point, but the rects are disjoint.
    """
    lines = {}
    for r in rects:
        lines.setdefault((VERTICAL, r.xlo), []).append((r.ylo, r.yhi))
        lines.setdefault((VERTICAL, r.xhi), []).append((r.ylo, r.yhi))
        lines.setdefault((HORIZONTAL, r.ylo), []).append((r.xlo, r.xhi))
        lines.setdefault((HORIZONTAL, r.yhi), []).append((r.xlo, r.xhi))
    segs = []
    for (axis, fixed), spans in lines.items():
        spans.sort()
        lo, hi = spans[0]
        for a, b in spans[1:]:
            if a < hi:
                hi = max(hi, b)
            else:
                segs.append(Segment(axis, fixed, lo, hi))
                lo, hi = a, b
        segs.append(Segment(axis, fixed, lo, hi))
    return segs


def _conflicts_for_cells(cells: Tiling, source_rects):
    """Per-cell list of the source rects intersecting the cell, in source order.

    Each slab of the cells' index holds its cells in ylo order, partitioning
    y, so the cells a rect meets in a slab form a run found by binary search.
    A cell's id is its position in ``cells.rects``.
    """
    index = cells.index()
    xs, starts, ylos, rects = index.xs, index.starts, index.ylos, index.rects
    nslab = len(xs) - 1
    conflicts = [[] for _ in cells.rects]
    for r in source_rects:
        i0 = bisect.bisect_right(xs, r.xlo) - 1
        i1 = bisect.bisect_left(xs, r.xhi)
        for i in range(max(i0, 0), min(i1, nslab)):
            lo, hi = starts[i], starts[i + 1]
            k0 = max(bisect.bisect_right(ylos, r.ylo, lo, hi) - 1, lo)
            k1 = bisect.bisect_left(ylos, r.yhi, lo, hi)
            for cell in rects[k0:k1]:
                lst = conflicts[cell.id]
                if not lst or lst[-1] is not r:
                    lst.append(r)
    return conflicts


def _split_overfull(cells_conf, budget):
    """Split any cell with more than ``budget`` conflicts at the median
    interior conflict-edge coordinate until every cell fits."""
    out = []
    stack = list(cells_conf)
    while stack:
        key, conf = stack.pop()
        if len(conf) <= budget:
            out.append((key, conf))
            continue
        xlo, xhi, ylo, yhi = key
        xcand, ycand = [], []
        for r in conf:
            for x in (r.xlo, r.xhi):
                if xlo < x < xhi:
                    xcand.append(x)
            for y in (r.ylo, r.yhi):
                if ylo < y < yhi:
                    ycand.append(y)
        # No interior edge => every conflict rect covers the whole cell, and
        # disjointness caps that at one rect, contradicting len > budget.
        assert xcand or ycand, "over-full cell with no interior conflict edges"
        if len(xcand) >= len(ycand):
            xcand.sort()
            c = xcand[len(xcand) // 2]
            halves = ((xlo, c, ylo, yhi), (c, xhi, ylo, yhi))
        else:
            ycand.sort()
            c = ycand[len(ycand) // 2]
            halves = ((xlo, xhi, ylo, c), (xlo, xhi, c, yhi))
        for hx0, hx1, hy0, hy1 in halves:
            sub = [r for r in conf if r.xlo < hx1 and hx0 < r.xhi and r.ylo < hy1 and hy0 < r.yhi]
            stack.append(((hx0, hx1, hy0, hy1), sub))
    return out


class ConflictIndex:
    """Point location over one cell's conflict rects, which may stick out of
    the cell; a point of the cell locates the conflict rect containing it."""

    __slots__ = ("index",)

    def __init__(self, cell: Rect, conflict_rects):
        self.index = SlabIndex(cell, conflict_rects)

    def locate(self, p, counters=None) -> int:
        return self.index.locate(p, counters).id


class Cutting:
    """Cells tiling the source bbox + per-cell conflict lists of source rects.

    ``conflicts[i]`` parallels ``cells.rects[i]``.  ``locate`` builds a
    cell's ``ConflictIndex`` the first time it locates in that cell and
    caches it in ``_ci``.
    """

    __slots__ = ("cells", "conflicts", "source", "target", "_ci")

    def __init__(self, cells: Tiling, conflicts, source: Tiling, target: int):
        self.cells = cells
        self.conflicts = conflicts
        self.source = source
        self.target = target
        self._ci = {}

    def locate(self, cell_idx, p, counters=None) -> int:
        """Id of the source rect containing point ``p`` of cell ``cell_idx``,
        found in the cell's conflict index; counts one located cell."""
        ci = self._ci.get(cell_idx)
        if ci is None:
            ci = ConflictIndex(self.cells.rects[cell_idx], self.conflicts[cell_idx])
            self._ci[cell_idx] = ci
        if counters is not None:
            counters.cells_located += 1
        return ci.locate(p, counters)

    def max_conflict(self):
        return max((len(c) for c in self.conflicts), default=0)


def verify_cutting(c: Cutting):
    """The post-build verification pass: the cells tile the bbox and keep
    the cell and conflict budgets; raises ValueError on any violation."""
    validate_tiling(c.cells)
    n, r = len(c.source), c.target
    if len(c.cells) > C_CUT * r:
        raise ValueError(f"{len(c.cells)} cells exceeds budget {C_CUT * r}")
    budget = C_CONF * n / r
    if c.max_conflict() > budget:
        raise ValueError(f"conflict list {c.max_conflict()} exceeds budget {budget}")


def cutting_build(source: Tiling, r: int, rng: random.Random) -> Cutting:
    n = len(source)
    if not 1 <= r <= n:
        raise InvalidParameter(f"r={r} outside [1, {n}]")
    bbox = source.bbox
    if r == 1:
        cells = Tiling(bbox, [Rect(0, bbox.xlo, bbox.xhi, bbox.ylo, bbox.yhi)])
        return Cutting(cells, [source.rects], source, r)
    p = min(1.0, SAMPLE_RHO * r / n)
    budget = C_CONF * n // r
    for _ in range(CUTTING_MAX_RETRIES):
        sampled = [rect for rect in source.rects if rng.random() < p]
        segs = _edge_segments(sampled)
        coarse = trapezoidal_decompose(bbox, segs)
        conf = _conflicts_for_cells(coarse, source.rects)
        pairs = _split_overfull([(c.key(), cf) for c, cf in zip(coarse.rects, conf)], budget)
        # The cell budget is the one check a sample can fail: the split caps
        # every conflict list, so a failed verification below is a defect.
        if len(pairs) > C_CUT * r:
            continue
        pairs.sort(key=lambda t: t[0])
        cells = Tiling(bbox, [Rect(i, *k) for i, (k, _) in enumerate(pairs)])
        cut = Cutting(cells, [cf for _, cf in pairs], source, r)
        verify_cutting(cut)
        return cut
    raise RetryExhausted(f"cutting r={r} missed the cell budget {CUTTING_MAX_RETRIES} times")
