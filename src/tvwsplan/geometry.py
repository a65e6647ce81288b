"""Planar polygon helpers and candidate-site lattices.

All coordinates are kilometres in a local planar frame; the target regions
are small enough (< 20 km extent) that geodesy is ignored.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "polygon_area",
    "polygon_is_simple",
    "point_in_polygon",
    "points_in_polygon",
    "polygon_bbox",
    "hex_lattice_sites",
]

MAX_GRID_BLOCK = 1 << 16  # grid points built and tested at once


def polygon_area(vertices) -> float:
    """Shoelace area of a closed polygon given as an (N, 2) vertex array."""
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[0] < 3 or v.shape[1] != 2:
        raise ValueError("polygon needs at least 3 planar vertices")
    x, y = v[:, 0], v[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):  # huge vertices: inf or NaN
        return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _segments_cross(p1, p2, q1, q2) -> bool:
    def orient(a, b, c):
        val = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if abs(val) < 1e-12:
            return 0
        return 1 if val > 0 else -1

    o1, o2 = orient(p1, p2, q1), orient(p1, p2, q2)
    o3, o4 = orient(q1, q2, p1), orient(q1, q2, p2)
    return o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4)


def polygon_is_simple(vertices) -> bool:
    """True when no two non-adjacent edges intersect."""
    v = np.asarray(vertices, dtype=float)
    n = len(v)
    edges = [(v[i], v[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            if _segments_cross(*edges[i], *edges[j]):
                return False
    return True


def point_in_polygon(x: float, y: float, vertices) -> bool:
    """Containment of one point (boundary counts as inside)."""
    return bool(points_in_polygon([(x, y)], vertices)[0])


def points_in_polygon(points, vertices) -> np.ndarray:
    """Vectorised containment mask for an (N, 2) point array.

    Ray casting against all edges at once; points within 1e-9 of an edge
    count as inside.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    v = np.asarray(vertices, dtype=float)
    x, y = pts[:, 0][:, None], pts[:, 1][:, None]
    x1, y1 = v[:, 0][None, :], v[:, 1][None, :]
    x2, y2 = np.roll(v[:, 0], -1)[None, :], np.roll(v[:, 1], -1)[None, :]

    crosses = (y1 > y) != (y2 > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xs = x1 + (y - y1) * (x2 - x1) / np.where(y2 == y1, np.inf, y2 - y1)
    inside = (np.sum(crosses & (x < xs), axis=1) % 2).astype(bool)

    on_edge = ((np.minimum(x1, x2) - 1e-12 <= x) & (x <= np.maximum(x1, x2) + 1e-12)
               & (np.minimum(y1, y2) - 1e-12 <= y) & (y <= np.maximum(y1, y2) + 1e-12)
               & (np.abs((x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)) < 1e-9))
    return inside | on_edge.any(axis=1)


def polygon_bbox(vertices):
    v = np.asarray(vertices, dtype=float)
    return v[:, 0].min(), v[:, 1].min(), v[:, 0].max(), v[:, 1].max()


def hex_lattice_sites(vertices, count: int, jitter_fraction: float, seed: int) -> np.ndarray:
    """Jittered hexagonal lattice of `count` points inside a polygon.

    The lattice pitch is solved by bisection so that exactly `count` points
    fall inside the outline; each kept point is then displaced by a seeded
    uniform jitter of at most `jitter_fraction * pitch` in both axes (points
    pushed outside the outline keep their unjittered position).  The layout
    is a pure function of (vertices, count, jitter_fraction, seed).

    The search only asks whether a pitch leaves at least `count` points
    inside, so it builds and tests each grid in blocks of whole rows, in grid
    order (about 4 * `count` points, then twice as many each time, up to
    `MAX_GRID_BLOCK` or one row), and stops once `count` are inside.  The answer equals
    that of testing the whole grid, because containment is decided point by
    point, and memory stays bounded however many points a grid has.  The
    final pitch's interior points are collected from all of its blocks.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    area = polygon_area(vertices)
    xmin, ymin, xmax, ymax = polygon_bbox(vertices)
    rng = np.random.Generator(np.random.PCG64(seed))

    def inside_blocks(pitch: float):
        # the grid's interior points, block by block in row-major order; a
        # row's x values depend only on its parity
        dy = pitch * math.sqrt(3.0) / 2.0
        rows = np.arange(ymin + 0.5 * dy, ymax, dy)
        xs = (np.arange(xmin + 0.25 * pitch, xmax, pitch),
              np.arange(xmin + 0.75 * pitch, xmax, pitch))
        per_row = max(1, len(xs[0]))  # even rows are the longer ones
        start, chunk = 0, min(4 * count, MAX_GRID_BLOCK)
        while start < len(rows):
            stop = min(len(rows), start + max(1, chunk // per_row))
            first, second = xs[start % 2], xs[1 - start % 2]
            ys = np.repeat(rows[start:stop],
                           np.resize([len(first), len(second)], stop - start))
            row_x = np.concatenate([first, second])
            pts = np.column_stack(
                [np.tile(row_x, (stop - start + 1) // 2)[:len(ys)], ys])
            yield pts[points_in_polygon(pts, vertices)]
            start, chunk = stop, min(2 * chunk, MAX_GRID_BLOCK)

    def fits(pitch: float) -> bool:
        missing = count
        for pts in inside_blocks(pitch):
            missing -= len(pts)
            if missing <= 0:
                return True
        return False

    # bracket a pitch giving at least `count` interior points
    hi = math.sqrt(2.0 * area / (math.sqrt(3.0) * count)) * 2.0
    lo = hi / 64.0
    while not fits(lo):
        lo /= 2.0
        if lo < 1e-4:
            raise ValueError("cannot fit requested site count inside region")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if fits(mid):
            lo = mid
        else:
            hi = mid
    pts = np.concatenate(list(inside_blocks(lo)))
    # drop surplus points farthest from the region centroid: keeps the core
    v = np.asarray(vertices, dtype=float)
    centroid = v.mean(axis=0)
    order = np.argsort(np.hypot(*(pts - centroid).T), kind="stable")
    pts = pts[order[:count]]
    # stable ordering by (y, x) so ids do not depend on trimming order
    pts = pts[np.lexsort((pts[:, 0], pts[:, 1]))]

    if jitter_fraction > 0.0:
        jit = rng.uniform(-jitter_fraction * lo, jitter_fraction * lo, size=pts.shape)
        moved = pts + jit
        keep = points_in_polygon(moved, vertices)
        pts = np.where(keep[:, None], moved, pts)
    return pts
