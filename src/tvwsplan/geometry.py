"""Planar polygon helpers and candidate-site lattices.

All coordinates are kilometres in a local planar frame; the target regions
are small enough (< 20 km extent) that geodesy is ignored.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

import numpy as np

__all__ = [
    "polygon_area",
    "polygon_is_simple",
    "point_in_polygon",
    "points_in_polygon",
    "polygon_bbox",
    "distance_to_outline",
    "hex_lattice_sites",
]

MAX_EDGE_PAIRS = 1 << 16  # edge pairs tested at once for self-intersection


def polygon_area(vertices) -> float:
    """Shoelace area of a closed polygon given as an (N, 2) vertex array."""
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[0] < 3 or v.shape[1] != 2:
        raise ValueError("polygon needs at least 3 planar vertices")
    x, y = v[:, 0], v[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):  # huge vertices: inf or NaN
        return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _turn(ax, ay, bx, by, cx, cy):
    # a -> b -> c turns left 1, right or NaN -1, straight within 1e-12: 0
    val = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return np.where(np.abs(val) < 1e-12, 0, np.where(val > 0, 1, -1))


def polygon_is_simple(vertices) -> bool:
    """True when no two non-adjacent edges cross: each one's end points
    lie strictly on opposite sides of the other's line, where a turn within
    1e-12 of straight is on neither side.  Edge rows a <= i < b are tested
    with numpy against the edges j >= a + 2 only, at most `MAX_EDGE_PAIRS`
    pairs a block."""
    v = np.asarray(vertices, dtype=float).reshape(-1, 2)
    n = len(v)
    q = (*v.T, *np.roll(v, -1, axis=0).T)  # each edge's x1, y1, x2, y2
    a = 0
    with np.errstate(over="ignore", invalid="ignore"):  # huge vertices: inf or NaN
        while a < n - 2:
            b = min(n - 2, a + max(1, MAX_EDGE_PAIRS // (n - a - 2)))
            i, j = np.arange(a, b)[:, None], np.arange(a + 2, n)
            pair = (j >= i + 2) & ((j + 1) % n != i)
            p = tuple(c[a:b, None] for c in q)
            r = tuple(c[a + 2:] for c in q)
            crosses = ((_turn(*p, *r[:2]) * _turn(*p, *r[2:]) < 0)
                       & (_turn(*r, *p[:2]) * _turn(*r, *p[2:]) < 0))
            if (crosses & pair).any():
                return False
            a = b
    return True


def point_in_polygon(x: float, y: float, vertices) -> bool:
    """Containment of one point (boundary counts as inside)."""
    return bool(points_in_polygon([(x, y)], vertices)[0])


def points_in_polygon(points, vertices) -> np.ndarray:
    """Vectorised containment mask for an (N, 2) point array.

    Ray casting; points within 1e-9 of an edge count as inside.  Only a point
    whose y lies in an edge's y-span, widened by 1e-12, can cross that edge
    or lie on it, so the points are sorted by y once and each edge is tested
    against its slice of them alone (`searchsorted`), about 3 edges per point
    on the bundled outlines instead of all of them.  Each (point, edge) pair
    goes through the same arithmetic as when every edge is tested, so the
    mask is the same.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    v = np.asarray(vertices, dtype=float)
    x1, y1 = v[:, 0], v[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    order = np.argsort(pts[:, 1])
    x, y = pts[order, 0], pts[order, 1]  # NaN sorts last and falls in no slice
    start = np.searchsorted(y, np.minimum(y1, y2) - 1e-12, side="left")
    span = np.searchsorted(y, np.maximum(y1, y2) + 1e-12, side="right") - start
    # the (point, edge) pairs, edge by edge: p indexes the sorted points, and
    # np.repeat(a, span) spreads a per-edge value over its pairs
    p = np.arange(span.sum()) + np.repeat(start - np.cumsum(span) + span, span)
    x, y = x[p], y[p]
    x1e, y1e = np.repeat(x1, span), np.repeat(y1, span)
    t = (y - y1e) * np.repeat(x2 - x1, span)  # in both tests: a product commutes exactly
    with np.errstate(divide="ignore", invalid="ignore"):
        hit = (((y1e > y) != (np.repeat(y2, span) > y))
               & (x < x1e + t / np.repeat(np.where(y2 == y1, np.inf, y2 - y1), span)))
    # the slice already holds the on-edge test's y bounds
    on_edge = ((np.repeat(np.minimum(x1, x2) - 1e-12, span) <= x)
               & (x <= np.repeat(np.maximum(x1, x2) + 1e-12, span))
               & (np.abs(t - np.repeat(y2 - y1, span) * (x - x1e)) < 1e-9))
    inside = np.bincount(p[hit], minlength=len(order)) % 2 == 1
    inside[p[on_edge]] = True
    mask = np.empty(len(order), dtype=bool)
    mask[order] = inside
    return mask


def polygon_bbox(vertices):
    v = np.asarray(vertices, dtype=float)
    return v[:, 0].min(), v[:, 1].min(), v[:, 0].max(), v[:, 1].max()


def distance_to_outline(points, vertices) -> np.ndarray:
    """Distance from each point of an (N, 2) array to the outline's nearest
    edge, edge by edge across all points; an edge giving NaN is passed over."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    v = np.asarray(vertices, dtype=float)
    best = np.full(len(pts), np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        for a, ab in zip(v, np.roll(v, -1, axis=0) - v):
            t = np.clip((pts - a) @ ab / max(ab @ ab, 1e-12), 0.0, 1.0)
            best = np.fmin(best, np.hypot(*(a + t[:, None] * ab - pts).T))
    return best


def _banded(spans):
    """Band starts, and for each band the items whose half-open span
    [lo, hi) holds it, from (lo, hi, item) triples.  A value v lies in the
    band starting at starts[bisect_right(starts, v) - 1]."""
    starts = sorted({b for lo, hi, _ in spans for b in (lo, hi)})
    return starts, [[item for lo, hi, item in spans if lo <= s < hi]
                    for s in starts]


def _in_band(banded, y: float):
    starts, bands = banded
    k = bisect_right(starts, y)
    return bands[k - 1] if k else ()


def _union(runs) -> list:
    """A union of half-open index runs as sorted, disjoint, non-empty runs."""
    merged = []
    for a, b in sorted(runs):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        elif a < b:
            merged.append([a, b])
    return merged


def _grid_counter(vertices):
    """`(count, collect)` for a grid's points inside the outline by
    `points_in_polygon`'s rule: `count(rows, xs, enough)` counts them,
    stopping once `enough` do, and `collect(rows, xs)` is their (N, 2) array
    in row-major order.  Row r is at height rows[r] and holds the sorted
    values xs[r % 2]; all values are Python floats.

    Each row's points come from the edges its height crosses, with the same
    IEEE operations as `points_in_polygon`: an x is inside by parity when an
    odd number of crossings exceed it, so the inside xs of a row are index
    runs found by `bisect`.  Points within 1e-9 of an edge are inside too;
    that distance is monotone in x along a row, so they form one run per
    edge, also found by `bisect`.  They can only add to the parity count, so
    `count` looks for them only once that count is in and still short.
    """
    v = np.asarray(vertices, dtype=float).tolist()
    edges = [(x1, y1, x2, y2) for (x1, y1), (x2, y2) in zip(v, v[1:] + v[:1])]
    # a row at y crosses an edge when (y1 > y) != (y2 > y): min <= y < max
    crossing = _banded([(min(y1, y2), max(y1, y2), (x1, y1, x2 - x1, y2 - y1))
                        for x1, y1, x2, y2 in edges])
    # and can touch it when min - 1e-12 <= y <= max + 1e-12
    touching = _banded([(min(y1, y2) - 1e-12,
                         math.nextafter(max(y1, y2) + 1e-12, math.inf),
                         (x1, y1, x2 - x1, y2 - y1,
                          min(x1, x2) - 1e-12, max(x1, x2) + 1e-12))
                        for x1, y1, x2, y2 in edges])

    def parity_runs(y, xs):
        # a row crosses an even number of edges; the xs inside by parity
        # run from cut 0 to cut 1, from cut 2 to cut 3, ...
        cuts = sorted(bisect_left(xs, x1 + (y - y1) * dx / dy)
                      for x1, y1, dx, dy in _in_band(crossing, y))
        return list(zip(cuts[::2], cuts[1::2]))

    def edge_runs(y, xs):
        for x1, y1, dx, dy, xlo, xhi in _in_band(touching, y):
            t = (y - y1) * dx
            sign = 1.0 if dy >= 0.0 else -1.0  # makes the distance non-increasing

            def dist(x):
                return sign * (t - dy * (x - x1))

            lo, hi = bisect_left(xs, xlo), bisect_right(xs, xhi)
            a = bisect_left(xs, True, lo, hi, key=lambda x: dist(x) < 1e-9)
            b = bisect_left(xs, True, a, hi, key=lambda x: dist(x) <= -1e-9)
            if a < b:
                yield a, b

    def count(rows, xs, enough) -> int:
        found, parity = 0, []
        for r, y in enumerate(rows):
            parity.append(parity_runs(y, xs[r % 2]))
            found += sum(b - a for a, b in parity[r])
            if found >= enough:
                return found
        for r, y in enumerate(rows):
            on_edge = list(edge_runs(y, xs[r % 2]))
            if on_edge:
                found += (sum(b - a for a, b in _union(parity[r] + on_edge))
                          - sum(b - a for a, b in parity[r]))
                if found >= enough:
                    return found
        return found

    def collect(rows, xs) -> np.ndarray:
        pts = [(x, y) for r, y in enumerate(rows)
               for row in [xs[r % 2]]
               for a, b in _union([*parity_runs(y, row), *edge_runs(y, row)])
               for x in row[a:b]]
        return np.array(pts, dtype=float).reshape(-1, 2)

    return count, collect


def hex_lattice_sites(vertices, count: int, jitter_fraction: float, seed: int) -> np.ndarray:
    """Jittered hexagonal lattice of `count` points inside a polygon.

    The lattice pitch is solved by bisection so that exactly `count` points
    fall inside the outline; each kept point is then displaced by a seeded
    uniform jitter of at most `jitter_fraction * pitch` in both axes (points
    pushed outside the outline keep their unjittered position).  The layout
    is a pure function of (vertices, count, jitter_fraction, seed).

    The search only asks whether a pitch leaves at least `count` points
    inside, and answers it row by row from the edges each grid row crosses
    (`_grid_counter`), without building the grid: the count equals
    `points_in_polygon` over the whole grid.  The bisection stops once its
    midpoint can no longer move.  The final pitch's interior points come
    from the same row runs, so no grid is built at any pitch.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    area = polygon_area(vertices)
    xmin, ymin, xmax, ymax = polygon_bbox(vertices)
    rng = np.random.Generator(np.random.PCG64(seed))
    inside_count, inside_points = _grid_counter(vertices)

    def grid(pitch: float):
        # row heights, and the x values of even and of odd rows
        dy = pitch * math.sqrt(3.0) / 2.0
        return (np.arange(ymin + 0.5 * dy, ymax, dy).tolist(),
                [np.arange(xmin + 0.25 * pitch, xmax, pitch).tolist(),
                 np.arange(xmin + 0.75 * pitch, xmax, pitch).tolist()])

    def fits(pitch: float) -> bool:
        return inside_count(*grid(pitch), count) >= count

    # bracket a pitch giving at least `count` interior points
    hi = math.sqrt(2.0 * area / (math.sqrt(3.0) * count)) * 2.0
    lo = hi / 64.0
    while not fits(lo):
        lo /= 2.0
        if lo < 1e-4:
            raise ValueError("cannot fit requested site count inside region")
    hi_failed = False
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid == lo or (mid == hi and hi_failed):
            break  # every later step would test this same midpoint again
        if fits(mid):
            lo = mid
        else:
            hi, hi_failed = mid, True
    pts = inside_points(*grid(lo))
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
