"""Brute-force reference implementations used by the test suite.

Everything here is deliberately slow and simple, and shares no logic with the
library beyond raw coordinate arithmetic, so a library bug cannot hide in its
own reference.  The exceptions are ``stab2d_walk``, which stabs the
library's IntervalTree1D, and ``stab3d_walk``, which queries the library's
Stab2D, because their node visits are part of the counter each checks, and
``interval_tree_reference``, which builds IntervalTree1D nodes the slow way
so the library's ``stab`` walks them.
"""

import bisect
import math
import random

from hypothesis import strategies as st

from ofc2d.geometry import HORIZONTAL, VERTICAL, Rect, Segment, SlabIndex, Tiling
from ofc2d.intervals import FLAT, IntervalTree1D
from ofc2d.stabbing import Stab2D


def _ray_stop_up(x, y, horiz, vert, yhi):
    """First blocking y strictly above (x, y): a horizontal whose closed x-span
    contains x, a collinear vertical endpoint, or the box top."""
    best = yhi
    for h in horiz:
        if h.lo <= x <= h.hi and y < h.fixed < best:
            best = h.fixed
    for v in vert:
        if v.fixed == x:
            for e in (v.lo, v.hi):
                if y < e < best:
                    best = e
    return best

def _ray_stop_down(x, y, horiz, vert, ylo):
    best = ylo
    for h in horiz:
        if h.lo <= x <= h.hi and best < h.fixed < y:
            best = h.fixed
    for v in vert:
        if v.fixed == x:
            for e in (v.lo, v.hi):
                if best < e < y:
                    best = e
    return best


def decompose_oracle(bbox, segments):
    """Independent trapezoidal decomposition: compute every vertical wall by
    brute-force ray shooting, chop the box into a micro-grid, and glue grid
    cells with union-find wherever no wall or segment separates them.

    Returns the set of (xlo, xhi, ylo, yhi) cell tuples.
    """
    horiz = [s for s in segments if s.axis == HORIZONTAL]
    vert = [s for s in segments if s.axis == VERTICAL]

    # Every subdivision vertex shoots a ray up and down.
    vertices = set()
    for h in horiz:
        vertices.add((h.lo, h.fixed))
        vertices.add((h.hi, h.fixed))
    for v in vert:
        vertices.add((v.fixed, v.lo))
        vertices.add((v.fixed, v.hi))

    walls = {}  # x -> list of (ylo, yhi) blocked intervals

    def add_wall(x, lo, hi):
        if lo < hi and bbox.xlo < x < bbox.xhi:
            walls.setdefault(x, []).append((lo, hi))

    for v in vert:
        add_wall(v.fixed, v.lo, v.hi)
    for (x, y) in vertices:
        add_wall(x, y, _ray_stop_up(x, y, horiz, vert, bbox.yhi))
        add_wall(x, _ray_stop_down(x, y, horiz, vert, bbox.ylo), y)

    xs = sorted({bbox.xlo, bbox.xhi} | set(walls))
    ys = {bbox.ylo, bbox.yhi}
    ys.update(h.fixed for h in horiz)
    for spans in walls.values():
        for lo, hi in spans:
            ys.add(lo)
            ys.add(hi)
    ys = sorted(ys)

    nx, ny = len(xs) - 1, len(ys) - 1
    parent = list(range(nx * ny))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    def x_blocked(x, ylo, yhi):
        return any(lo <= ylo and yhi <= hi for lo, hi in walls.get(x, ()))

    def y_blocked(y, xlo, xhi):
        return any(h.fixed == y and h.lo <= xlo and xhi <= h.hi for h in horiz)

    for i in range(nx):
        for j in range(ny):
            c = i * ny + j
            if i + 1 < nx and not x_blocked(xs[i + 1], ys[j], ys[j + 1]):
                union(c, (i + 1) * ny + j)
            if j + 1 < ny and not y_blocked(ys[j + 1], xs[i], xs[i + 1]):
                union(c, i * ny + j + 1)

    groups = {}
    for i in range(nx):
        for j in range(ny):
            groups.setdefault(find(i * ny + j), []).append((i, j))
    cells = set()
    for members in groups.values():
        xlo = min(xs[i] for i, _ in members)
        xhi = max(xs[i + 1] for i, _ in members)
        ylo = min(ys[j] for _, j in members)
        yhi = max(ys[j + 1] for _, j in members)
        area = sum((xs[i + 1] - xs[i]) * (ys[j + 1] - ys[j]) for i, j in members)
        assert area == (xhi - xlo) * (yhi - ylo), "oracle face is not a rectangle"
        cells.add((xlo, xhi, ylo, yhi))
    return cells


def _conflicts(a, b):
    """True if segments a, b properly cross or overlap collinearly."""
    if a.axis == b.axis:
        if a.fixed != b.fixed:
            return False
        return a.lo < b.hi and b.lo < a.hi
    h, v = (a, b) if a.axis == HORIZONTAL else (b, a)
    return h.lo < v.fixed < h.hi and v.lo < h.fixed < v.hi


def random_segments(bbox, count, rng: random.Random, max_tries=10000):
    """Random valid orthogonal subdivision: axis-aligned segments inside bbox
    meeting only at endpoints (generated by rejection sampling)."""
    out = []
    tries = 0
    while len(out) < count and tries < max_tries:
        tries += 1
        if rng.random() < 0.5:
            y = rng.randint(bbox.ylo, bbox.yhi)
            a = rng.randint(bbox.xlo, bbox.xhi - 1)
            b = rng.randint(a + 1, bbox.xhi)
            s = Segment(HORIZONTAL, y, a, b)
        else:
            x = rng.randint(bbox.xlo, bbox.xhi)
            a = rng.randint(bbox.ylo, bbox.yhi - 1)
            b = rng.randint(a + 1, bbox.yhi)
            s = Segment(VERTICAL, x, a, b)
        if all(not _conflicts(s, t) for t in out):
            out.append(s)
    if len(out) < count:
        raise RuntimeError("rejection sampling failed to fill the quota")
    return out


def stab_oracle_2d(items, p):
    """Linear scan: the payload of every (rect, payload) item whose rect
    contains p, once per item."""
    return [pl for r, pl in items if r.xlo <= p.x < r.xhi and r.ylo <= p.y < r.yhi]


def stab_oracle_3d(items, p, z):
    """Linear scan: the payload of every (rect, zlo, zhi, payload) item whose
    box contains (p.x, p.y, z), once per item."""
    return [
        pl
        for r, zlo, zhi, pl in items
        if r.xlo <= p.x < r.xhi
        and r.ylo <= p.y < r.yhi
        and zlo <= z < zhi
    ]


def interval_tree_reference(items):
    """IntervalTree1D built node by node with the plain per-node builder: at
    most ``FLAT`` intervals make a flat leaf (center ``math.inf``, one list
    sorted by lo with a lambda key); more take a fresh sorted endpoint set,
    its lower median as the center, and lambda sort keys (``-hi`` for the
    descending list).  The library's faster constructor must build the same
    tree."""
    node = object.__new__(IntervalTree1D)
    items = list(items)
    node.size = len(items)
    if len(items) <= FLAT:
        node.center = math.inf
        node.by_lo = sorted(items, key=lambda it: it[0])
        node.by_hi_desc = list(node.by_lo)
        node.left = node.right = None
        return node
    endpoints = sorted(set(x for lo, hi, _ in items for x in (lo, hi)))
    node.center = endpoints[(len(endpoints) - 1) // 2]
    here, left, right = [], [], []
    for it in items:
        lo, hi, _ = it
        if hi <= node.center:
            left.append(it)
        elif lo > node.center:
            right.append(it)
        else:
            here.append(it)
    node.by_lo = sorted(here, key=lambda it: it[0])
    node.by_hi_desc = sorted(here, key=lambda it: -it[1])
    node.left = interval_tree_reference(left) if left else None
    node.right = interval_tree_reference(right) if right else None
    return node


def stab2d_walk(items):
    """Reference for Stab2D.query as a root-to-leaf walk: a segment tree over
    the x elementary intervals, one IntervalTree1D per non-empty node kept in
    a dict, and a walk that counts every node on the path as one stab node
    and stabs the trees it meets.  Returns ``query(p, counters)``."""
    xs = sorted({x for r, _ in items for x in (r.xlo, r.xhi)})
    m = max(1, len(xs) - 1)
    buckets = {}

    def insert(node, nl, nr, l, r, item):
        if l <= nl and nr <= r:
            buckets.setdefault(node, []).append(item)
            return
        mid = (nl + nr) // 2
        if l < mid:
            insert(2 * node, nl, mid, l, r, item)
        if r > mid:
            insert(2 * node + 1, mid, nr, l, r, item)

    for rect, payload in items:
        insert(1, 0, m, bisect.bisect_left(xs, rect.xlo),
               bisect.bisect_left(xs, rect.xhi), (rect.ylo, rect.yhi, payload))
    trees = {node: IntervalTree1D(b) for node, b in buckets.items()}

    def query(p, counters):
        out = []
        i = bisect.bisect_right(xs, p.x) - 1
        if i < 0 or i >= len(xs) - 1:
            return out
        node, nl, nr = 1, 0, m
        while True:
            counters.stab_nodes_visited += 1
            if node in trees:
                trees[node].stab(p.y, out, counters)
            if nr - nl <= 1:
                return out
            mid = (nl + nr) // 2
            if i < mid:
                node, nr = 2 * node, mid
            else:
                node, nl = 2 * node + 1, mid

    return query


def stab3d_walk(items, H):
    """Reference for Stab3D.query as a root-to-leaf walk: a fan-out-H range
    tree over the z elementary intervals whose nodes are split only when an
    insert passes through them, one Stab2D per non-empty node kept in a dict,
    and a walk that counts every node on the path as one stab node and
    queries the Stab2Ds it meets.  Returns ``query(p, z, counters)``."""
    zs = sorted({z for _, zlo, zhi, _ in items for z in (zlo, zhi)})
    ranges = [(0, max(1, len(zs) - 1))]
    children = [[]]
    buckets = {}

    def insert(node, l, r, item):
        nl, nr = ranges[node]
        if l <= nl and nr <= r:
            buckets.setdefault(node, []).append(item)
            return
        if not children[node] and nr - nl > 1:
            step = -(-(nr - nl) // H)
            for a in range(nl, nr, step):
                children[node].append(len(ranges))
                ranges.append((a, min(a + step, nr)))
                children.append([])
        for c in children[node]:
            cl, cr = ranges[c]
            if l < cr and cl < r:
                insert(c, l, r, item)

    for rect, zlo, zhi, payload in items:
        insert(0, bisect.bisect_left(zs, zlo), bisect.bisect_left(zs, zhi),
               (rect, payload))
    stabs = {node: Stab2D(b) for node, b in buckets.items()}

    def query(p, z, counters):
        out = []
        i = bisect.bisect_right(zs, z) - 1
        if i < 0 or i >= len(zs) - 1:
            return out
        node = 0
        while node is not None:
            counters.stab_nodes_visited += 1
            if node in stabs:
                out += stabs[node].query(p, counters)
            node = next((c for c in children[node]
                         if ranges[c][0] <= i < ranges[c][1]), None)
        return out

    return query


def bbox_of(side):
    return Rect(-1, 0, side, 0, side)


def assert_conflicts_cover_cells(c):
    """Each cell of cutting ``c`` is covered exactly by its conflict rects:
    clipped to the cell, their areas add up to the cell's area."""
    for i, cell in enumerate(c.cells.rects):
        covered = 0
        for s in c.conflicts[i]:
            w = min(s.xhi, cell.xhi) - max(s.xlo, cell.xlo)
            h = min(s.yhi, cell.yhi) - max(s.ylo, cell.ylo)
            if w > 0 and h > 0:
                covered += w * h
        assert covered == cell.area, f"cell {i} not exactly covered by its conflicts"


def covers_exactly(tiling):
    """Whether ``tiling``'s rects, ids distinct, cover every unit cell of its
    bbox once and nothing outside it, counted cell by cell."""
    rects, bbox = tiling.rects, tiling.bbox
    if len({r.id for r in rects}) != len(rects):
        return False
    xs = [x for r in (*rects, bbox) for x in (r.xlo, r.xhi)]
    ys = [y for r in (*rects, bbox) for y in (r.ylo, r.yhi)]
    for x in range(min(xs), max(xs)):
        for y in range(min(ys), max(ys)):
            inside = bbox.xlo <= x < bbox.xhi and bbox.ylo <= y < bbox.yhi
            count = sum(r.xlo <= x < r.xhi and r.ylo <= y < r.yhi for r in rects)
            if count != inside:
                return False
    return True


def clipped_slab_index(cell, rects):
    """The SlabIndex a cell's conflict rects got when they were clipped first:
    copies of ``rects`` clipped to ``cell``, put in every x slab they cover
    by a scan, and each slab sorted on its own.  Only the fields are built
    here; ``locate`` is the library's."""
    clipped = [Rect(r.id, max(r.xlo, cell.xlo), min(r.xhi, cell.xhi),
                    max(r.ylo, cell.ylo), min(r.yhi, cell.yhi)) for r in rects]
    xs = sorted({cell.xlo, cell.xhi} | {x for r in clipped for x in (r.xlo, r.xhi)})
    slabs = [sorted((r for r in clipped if r.xlo <= a and b <= r.xhi),
                    key=lambda r: r.ylo)
             for a, b in zip(xs, xs[1:])]
    idx = SlabIndex.__new__(SlabIndex)
    idx.bbox = cell
    idx.xs = xs
    idx.starts = [0]
    idx.rects = []
    for slab in slabs:
        idx.rects += slab
        idx.starts.append(len(idx.rects))
    idx.ylos = [r.ylo for r in idx.rects]
    idx.entries = len(idx.rects)
    return idx


def pinwheel():
    """Four rects around a centre cell; no straight cut splits it."""
    return Tiling(Rect(-1, 0, 3, 0, 3), [
        Rect(0, 0, 2, 0, 1), Rect(1, 2, 3, 0, 2), Rect(2, 1, 3, 2, 3),
        Rect(3, 0, 1, 1, 3), Rect(4, 1, 2, 1, 2),
    ])


def comb(k):
    """k unit columns under k full-width rows, and a filler beside both."""
    return Tiling(Rect(-1, 0, 2 * k, 0, 2 * k), (
        [Rect(i, i, i + 1, 0, k) for i in range(k)]
        + [Rect(k + i, 0, k, k + i, k + i + 1) for i in range(k)]
        + [Rect(2 * k, k, 2 * k, 0, 2 * k)]
    ))


@st.composite
def guillotine_tilings(draw, bbox, max_cuts, start_id=0):
    """Tiling of ``bbox`` made by up to ``max_cuts`` guillotine cuts, its
    rects numbered from ``start_id``."""
    cells = [(bbox.xlo, bbox.xhi, bbox.ylo, bbox.yhi)]
    for _ in range(draw(st.integers(0, max_cuts))):
        i = draw(st.integers(0, len(cells) - 1))
        xlo, xhi, ylo, yhi = cells[i]
        if draw(st.booleans()):
            c = draw(st.integers(xlo + 1, xhi - 1)) if xhi - xlo > 1 else None
            parts = [(xlo, c, ylo, yhi), (c, xhi, ylo, yhi)]
        else:
            c = draw(st.integers(ylo + 1, yhi - 1)) if yhi - ylo > 1 else None
            parts = [(xlo, xhi, ylo, c), (xlo, xhi, c, yhi)]
        if c is not None:
            cells[i:i + 1] = parts
    return Tiling(bbox, [Rect(start_id + j, *c) for j, c in enumerate(cells)])
