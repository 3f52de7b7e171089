"""Seeded random instance generation.

Everything here is a pure function of its explicit ``random.Random`` state;
no ambient randomness, so re-running with the same seed reproduces instances
byte for byte.
"""

from __future__ import annotations

import random

from .catalog.model import CatalogGraph, CatalogTree, CatalogVertex
from .geometry import Rect, Tiling


def random_tiling(bbox: Rect, k: int, rng: random.Random, start_id: int = 0) -> Tiling:
    """Binary-space-partition tiling of ``bbox`` with exactly ``k`` rects.

    Splits a random cell at a random coordinate until ``k`` cells exist;
    valid by construction.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if bbox.area < k:
        raise ValueError(f"bbox area {bbox.area} cannot hold {k} unit cells")
    done = []
    splittable = [(bbox.xlo, bbox.xhi, bbox.ylo, bbox.yhi)]
    while len(done) + len(splittable) < k:
        i = rng.randrange(len(splittable))
        xlo, xhi, ylo, yhi = splittable.pop(i)
        w, h = xhi - xlo, yhi - ylo
        if w <= 1 and h <= 1:
            done.append((xlo, xhi, ylo, yhi))
            continue
        # Split axis chosen proportionally to side length to limit aspect.
        if (rng.randrange(w + h) < w and w > 1) or h <= 1:
            c = rng.randint(xlo + 1, xhi - 1)
            parts = [(xlo, c, ylo, yhi), (c, xhi, ylo, yhi)]
        else:
            c = rng.randint(ylo + 1, yhi - 1)
            parts = [(xlo, xhi, ylo, c), (xlo, xhi, c, yhi)]
        for p in parts:
            if (p[1] - p[0]) * (p[3] - p[2]) > 1:
                splittable.append(p)
            else:
                done.append(p)
    cells = sorted(done + splittable)
    rects = [Rect(start_id + i, *c) for i, c in enumerate(cells)]
    return Tiling(bbox, rects)


def _split_sizes(total: int, m: int, rng: random.Random):
    """Partition ``total`` into ``m`` positive parts, randomly weighted."""
    if total < m:
        raise ValueError(f"cannot give {m} vertices at least one rect from {total}")
    weights = [rng.random() + 0.1 for _ in range(m)]
    s = sum(weights)
    sizes = [max(1, int(total * w / s)) for w in weights]
    # Fix rounding drift.
    diff = total - sum(sizes)
    i = 0
    while diff != 0:
        j = i % m
        if diff > 0:
            sizes[j] += 1
            diff -= 1
        elif sizes[j] > 1:
            sizes[j] -= 1
            diff += 1
        i += 1
    return sizes


def _attach_tilings(adjacency, sizes, rng):
    bbox = default_bbox(sum(sizes))
    vertices = {}
    next_id = 0
    for vid, k in enumerate(sizes):
        t = random_tiling(bbox, k, rng, start_id=next_id)
        next_id += k
        vertices[vid] = CatalogVertex(vid, t, tuple(sorted(adjacency[vid])))
    return vertices


def random_tree_catalog(n_vertices: int, total_rects: int, height: int,
                        rng: random.Random) -> CatalogTree:
    """Random binary catalog tree with the exact requested height.

    A chain of ``height`` edges pins the height; remaining vertices attach
    at random to vertices with spare child slots and depth < height.
    """
    if height > n_vertices - 1:
        raise ValueError("height exceeds vertex budget")
    adjacency = {i: [] for i in range(n_vertices)}
    depth = {0: 0}
    children = {i: 0 for i in range(n_vertices)}
    for i in range(height):
        adjacency[i].append(i + 1)
        adjacency[i + 1].append(i)
        children[i] = 1
        depth[i + 1] = i + 1
    # Vertices that can still take a child without growing past the height.
    slots = [v for v in range(height + 1) if children[v] < 2 and depth[v] < height]
    for v in range(height + 1, n_vertices):
        if not slots:
            # Binary slots exhausted; allow wider fan-out rather than fail.
            slots = [u for u in depth if depth[u] < height]
        i = rng.randrange(len(slots))
        parent = slots[i]
        adjacency[parent].append(v)
        adjacency[v].append(parent)
        children[parent] += 1
        depth[v] = depth[parent] + 1
        if children[parent] >= 2:
            slots.pop(i)
        if depth[v] < height:
            slots.append(v)
    sizes = _split_sizes(total_rects, n_vertices, rng)
    return CatalogTree(_attach_tilings(adjacency, sizes, rng), 0)


def random_graph_catalog(n_vertices: int, total_rects: int, degree: int,
                         rng: random.Random) -> CatalogGraph:
    """Connected random catalog graph with maximum degree ``degree``: a
    random spanning tree plus up to ``n_vertices // 4`` extra edges."""
    if degree < 2:
        raise ValueError("degree bound must be >= 2")
    adjacency = {i: set() for i in range(n_vertices)}
    order = list(range(1, n_vertices))
    rng.shuffle(order)
    placed = [0]
    for v in order:
        candidates = [u for u in placed if len(adjacency[u]) < degree - 1]
        if not candidates:
            candidates = [u for u in placed if len(adjacency[u]) < degree]
        u = rng.choice(candidates)
        adjacency[u].add(v)
        adjacency[v].add(u)
        placed.append(v)
    for _ in range(n_vertices // 4):
        u = rng.randrange(n_vertices)
        v = rng.randrange(n_vertices)
        if u == v or v in adjacency[u]:
            continue
        if len(adjacency[u]) < degree and len(adjacency[v]) < degree:
            adjacency[u].add(v)
            adjacency[v].add(u)
    sizes = _split_sizes(total_rects, n_vertices, rng)
    return CatalogGraph(_attach_tilings(adjacency, sizes, rng), degree)


def default_bbox(total_rects: int) -> Rect:
    """Rank-space bounding box sized to hold ``total_rects`` comfortably."""
    side = 1
    while side * side < 4 * total_rects:
        side *= 2
    return Rect(-1, 0, side, 0, side)


def random_point(bbox: Rect, rng: random.Random):
    from .geometry import Point

    return Point(rng.randrange(bbox.xlo, bbox.xhi), rng.randrange(bbox.ylo, bbox.yhi))
