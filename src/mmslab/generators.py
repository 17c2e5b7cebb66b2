"""Constructors for the example spaces used throughout the package.

Five families: a cos^2-weighted segment, intrinsic circles, wedge-of-circles
truncations, necklace spaces (segments with diamond-shaped 2D beads under the
intrinsic L-infinity metric), and Euclidean ball grids.  Every constructor
records its grid pitch in ``meta`` so downstream tolerances can scale with
resolution, and its arguments in ``meta["params"]`` for ``generate``, the
only record of its layout: no generator stores a per-cell or per-fiber table.
Each works out its cell count before it allocates anything that size and
refuses more than ``MAX_CELLS``; its errors name the parameter at fault.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from mmslab.core import FiniteMMS

HALF_PI = math.pi / 2.0

# Diamond boundary slope: beads are {|y| <= (1/4 r - |x - x_k|)/9}.
DIAMOND_SLOPE = 1.0 / 9.0

# Most cells a generator builds: a 2 GiB distance matrix.
MAX_CELLS = 16_384


def _real(name, value):
    """``value`` itself if it is a real number; a string, a bool, None or
    anything else raises ``ValueError`` naming the parameter ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return value


def _check_cells(name, cells):
    """Raise ``ValueError`` naming the parameter ``name`` unless
    ``cells``, a cell count or the float it is rounded from, stays within
    ``MAX_CELLS``; an infinite or NaN count fails too."""
    if not cells < MAX_CELLS + 0.5:
        raise ValueError(f"{name} gives {cells:.4g} cells;"
                         f" at most {MAX_CELLS} are allowed")


def _count(name, value) -> int:
    """``value`` as an int after ``_check_cells``; 12.0 passes, 12.7 raises."""
    _check_cells(name, value)
    if not float(value).is_integer():
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


# === 1D segment ===

def segment_space(resolution: float) -> FiniteMMS:
    """Weighted segment [0, pi/2] with density cos^2(x).

    Cells are uniform intervals with midpoint coordinates; the weight of a
    cell is cos^2(midpoint) times the cell width, so the total mass is the
    midpoint-rule approximation of pi/4.
    """
    if not 0 < _real("resolution", resolution) < HALF_PI:
        raise ValueError("resolution must lie in (0, pi/2)")
    _check_cells("resolution", HALF_PI / resolution)
    n = max(2, round(HALF_PI / resolution))
    w = HALF_PI / n
    x = (np.arange(n) + 0.5) * w
    dist = x[:, None] - x[None, :]
    np.abs(dist, out=dist)      # in place: one n^2 array, not two
    weight = np.cos(x) ** 2 * w
    coords = np.column_stack([x, np.zeros(n)])
    meta = {"generator": "segment", "params": {"resolution": resolution},
            "pitch": w, "cells": n, "length": HALF_PI}
    return FiniteMMS(dist=dist, weight=weight, coords=coords, meta=meta)


# === circles and wedges ===

def circle_space(radius: float, resolution: int) -> FiniteMMS:
    """Circle of the given radius with intrinsic (arc-length) distance and
    uniform 1D Hausdorff weights; ``resolution`` counts cells."""
    if _real("radius", radius) <= 0:
        raise ValueError("radius must be positive")
    if not _real("resolution", resolution) >= 3:
        raise ValueError("need at least 3 cells")
    m = _count("resolution", resolution)
    circumference = 2 * math.pi * radius
    arc = circumference * np.arange(m) / m
    gap = np.abs(arc[:, None] - arc[None, :])
    dist = np.minimum(gap, circumference - gap)
    theta = 2 * math.pi * np.arange(m) / m
    coords = radius * np.column_stack([np.cos(theta), np.sin(theta)])
    meta = {"generator": "circle", "pitch": circumference / m, "cells": m,
            "params": {"radius": radius, "resolution": resolution}}
    return FiniteMMS(dist=dist, weight=np.full(m, circumference / m),
                     coords=coords, meta=meta)


def hawaiian_truncation(n: int, resolution: int) -> FiniteMMS:
    """Wedge of circles of radii 1/k^2, k = 1..n, glued at one base cell.

    Distances are intrinsic: along the own circle, or through the base when
    the endpoints sit on different circles.  The base cell carries one cell
    length from every incident circle, so the total mass is exactly the sum
    of the circumferences.
    """
    if not _real("n", n) >= 1:
        raise ValueError("need at least one circle")
    if not _real("resolution", resolution) >= 3:
        raise ValueError("need at least 3 cells per circle")
    m = _count("resolution", resolution)
    n = _count("n", n)
    _check_cells("n", 1 + n * (m - 1))
    lengths = [2 * math.pi / k**2 for k in range(1, n + 1)]
    per_circle = np.asarray(lengths)[:, None]
    step = np.arange(1, m)

    # the base cell first, then circle by circle; arc is the position
    # along the own circle
    cnum = np.concatenate([[-1], np.repeat(np.arange(n), m - 1)])
    arc = np.concatenate([[0.0], (per_circle * step / m).ravel()])
    weights = np.concatenate([[sum(L / m for L in lengths)],
                              np.repeat(per_circle[:, 0] / m, m - 1)])
    length_of_cell = np.where(cnum >= 0, np.asarray(lengths + [1.0])[cnum], 1.0)
    # distance to the base along the own circle (0 for the base itself)
    d_base = np.minimum(arc, length_of_cell - arc)
    d_base[0] = 0.0

    same = cnum[:, None] == cnum[None, :]
    gap = np.abs(arc[:, None] - arc[None, :])
    own = np.minimum(gap, length_of_cell[:, None] - gap)
    through = d_base[:, None] + d_base[None, :]
    dist = np.where(same, np.minimum(own, through), through)
    np.fill_diagonal(dist, 0.0)

    meta = {"generator": "earring", "pitch": 2 * math.pi / m,
            "params": {"n": n, "resolution": resolution},
            "circles": n, "cells_per_circle": m}
    return FiniteMMS(dist=dist, weight=weights, meta=meta)


# === necklace spaces ===

@dataclass(frozen=True)
class NecklaceParams:
    """Bead layout and resolution for a necklace space.

    ``beads`` lists (x_k, r_k) pairs with 0 < r_k <= 1 and
    r_k/4 <= x_k <= pi/2 - r_k/4; the bead intervals
    [x_k - r_k/4, x_k + r_k/4] must be pairwise disjoint.
    """

    beads: tuple
    resolution: float

    def __post_init__(self):
        pair = (list, tuple)
        if not (isinstance(self.beads, pair) and all(
                isinstance(b, pair) and len(b) == 2 for b in self.beads)):
            raise ValueError("beads must be a list of (x, r) pairs,"
                             f" got {self.beads!r}")
        beads = tuple((float(_real("beads", x)), float(_real("beads", r)))
                      for x, r in self.beads)
        if not 0 < _real("resolution", self.resolution) < HALF_PI:
            raise ValueError("resolution must lie in (0, pi/2)")
        for x, r in beads:
            if not 0 < r <= 1:
                raise ValueError(f"bead size {r} outside (0, 1]")
            if not (r / 4 <= x <= HALF_PI - r / 4):
                raise ValueError(f"bead at {x} does not fit in [0, pi/2]")
        spans = sorted((x - r / 4, x + r / 4) for x, r in beads)
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            if lo < hi:
                raise ValueError("bead intervals overlap")
        object.__setattr__(self, "beads", tuple(sorted(beads)))


def _necklace_layout(params: NecklaceParams):
    """Fiber layout of the necklace ``params``: the fiber pitch w and, per
    fiber, its abscissa, bead half-height (0 off the beads), cell count,
    first cell (one more entry: the cell count) and bead (-1 off the
    beads).  Cells are stored fiber by fiber."""
    _check_cells("resolution", HALF_PI / params.resolution)  # a cell a fiber
    n_fib = max(2, round(HALF_PI / params.resolution))
    w = HALF_PI / n_fib
    fx = (np.arange(n_fib) + 0.5) * w

    bead_of_fiber = np.full(n_fib, -1)
    fiber_h = np.zeros(n_fib)
    for k, (xk, rk) in enumerate(params.beads):
        inside = np.abs(fx - xk) < rk / 4
        bead_of_fiber[inside] = k
        fiber_h[inside] = DIAMOND_SLOPE * (rk / 4 - np.abs(fx[inside] - xk))

    fiber_count = np.where(fiber_h > 0,
                           2 * np.ceil(fiber_h / w - 1e-12).astype(int), 1)
    fiber_start = np.concatenate([[0], np.cumsum(fiber_count)])
    _check_cells("resolution", fiber_start[-1])
    return w, fx, fiber_h, fiber_count, fiber_start, bead_of_fiber


def necklace(params: NecklaceParams) -> FiniteMMS:
    """Necklace space: the cos^2 segment with diamond-shaped beads.

    Each bead replaces its segment interval with the 2D diamond
    {|y| <= (r/4 - |x - x_k|)/9}.  Cells are organized per x-fiber: a fiber
    inside a bead of half-height H is split into an even number of y-cells
    of extent at most one pitch, all sharing the fiber mass cos^2(x)*pitch
    equally (the bead density is constant in y for fixed x).

    The metric is the intrinsic length metric induced by the L-infinity
    norm: the shortest cell path that steps between consecutive cells of one
    fiber at cost |dy| and between any cells of adjacent fibers at cost
    max(pitch, |dy|).  One left-to-right sweep over the fibers computes it,
    because paths that move monotonically in x suffice.  Every step costs
    at least its |dy|, so a stretch of path that leaves a fiber and comes
    back to it costs at least the vertical gap between its ends, which the
    fiber's own evenly spaced cells cover at exactly |dy|; cutting out every
    such excursion leaves a path that visits each fiber once.  Every step
    between fibers costs at least the pitch w, so a step inside a fiber
    next to one can be dropped too: max(w, |a - b'|) + |b' - b| >=
    max(w, |a - b|).  Hence the distance within a fiber is |dy|, and the
    distances from the cells at or left of fiber i-1 (the columns before
    fiber i, as cells are stored fiber by fiber) to fiber i are one
    min-plus step from fiber i-1 with step costs max(w, |dy|).  Each fiber's
    row block is mirrored into its column block, so the matrix is exactly
    symmetric with a zero diagonal.
    """
    w, fx, fiber_h, fiber_count, fiber_start, _ = _necklace_layout(params)
    n_cells = int(fiber_start[-1])

    xs = np.empty(n_cells)
    ys = np.empty(n_cells)
    weight = np.empty(n_cells)
    for i in range(fx.size):
        k_i = fiber_count[i]
        sl = slice(fiber_start[i], fiber_start[i] + k_i)
        xs[sl] = fx[i]
        if k_i == 1:
            ys[sl] = 0.0
        else:
            ext = 2 * fiber_h[i] / k_i
            ys[sl] = -fiber_h[i] + (np.arange(k_i) + 0.5) * ext
        weight[sl] = np.cos(fx[i]) ** 2 * w / k_i

    dist = np.empty((n_cells, n_cells))
    single = fiber_count == 1
    i = 0
    while i < fx.size:
        a, b = fiber_start[i], fiber_start[i + 1]
        if i > 0 and single[i - 1] and single[i]:
            # a run of spine fibers after a spine cell: the step to each
            # costs w, so row a + t is row a - 1 plus w added t + 1 times,
            # in the order the min-plus step adds them, and the run's own
            # block is Toeplitz in those sums
            i += 1
            while i < fx.size and single[i]:
                i += 1
            b = fiber_start[i]
            acc = np.empty((b - a + 1, a))
            acc[0] = dist[a - 1, :a]
            acc[1:] = w
            np.add.accumulate(acc, axis=0, out=acc)
            dist[a:b, :a] = acc[1:]
            dist[:a, a:b] = acc[1:].T
            sums = np.full(b - a, w)
            sums[0] = 0.0
            np.add.accumulate(sums, out=sums)
            # sums[|t - s|] sits at b - a - 1 - t + s of the mirrored sums
            mirrored = np.concatenate([sums[:0:-1], sums])
            dist[a:b, a:b] = sliding_window_view(mirrored, b - a)[::-1]
            continue
        y = ys[a:b]
        dist[a:b, a:b] = np.abs(y[:, None] - y[None, :])
        if i > 0:
            p = fiber_start[i - 1]
            step = np.maximum(w, np.abs(ys[p:a, None] - y[None, :]))
            left = dist[a:b, :a]
            np.add(dist[p, :a], step[0][:, None], out=left)
            for r in range(1, a - p):    # only a bead fiber holds more cells
                np.minimum(left, dist[p + r, :a] + step[r][:, None], out=left)
            dist[:a, a:b] = left.T
        i += 1

    meta = {"generator": "necklace", "pitch": w,
            "params": {"beads": [[x, r] for x, r in params.beads],
                       "resolution": params.resolution}}
    return FiniteMMS(dist=dist, weight=weight,
                     coords=np.column_stack([xs, ys]), meta=meta)


def necklace_fibers(space: FiniteMMS):
    """Per-fiber bookkeeping arrays of a necklace space, laid out again
    from its recipe ``meta["params"]``.

    Returns (fiber_of_cell, fiber_x, fiber_h, fiber_count, fiber_start,
    bead_of_fiber) as numpy arrays.  Works on any space produced by
    ``necklace`` (including zero beads) and on its reloads.  ``ball``,
    ``scale`` and hand-built spaces have no necklace recipe and raise
    ``ValueError``, as does a recipe not laying out ``space.n`` cells.
    """
    params = space.meta.get("params")
    if space.meta.get("generator") == "necklace" and params is not None:
        _, fx, fiber_h, count, start, bead = _necklace_layout(
            NecklaceParams(**params))
        if start[-1] == space.n:
            return (np.repeat(np.arange(fx.size), count), fx, fiber_h,
                    count, start[:-1], bead)
    raise ValueError(f"space has no necklace recipe for its {space.n} cells;"
                     " ball, scale and hand-built spaces have none")


# === Euclidean ball grids ===

def euclidean_ball_grid(k: int, r: float, resolution: float) -> FiniteMMS:
    """Grid discretization of the closed Euclidean ball of radius r in R^k."""
    if k not in (1, 2, 3):
        raise ValueError("dimension must be 1, 2, or 3")
    if not (_real("r", r) > 0 and _real("resolution", resolution) > 0):
        raise ValueError("radius and resolution must be positive")
    pitch = float(resolution)
    try:
        volume = pitch**k
    except OverflowError:
        raise ValueError(f"resolution {resolution!r} gives a cell volume"
                         " past the float range") from None
    # the grid before the ball filter holds (2m + 1)^k points; one axis
    # is bounded first, so that m is a small integer
    _check_cells("r/resolution", 2 * r / pitch + 1)
    m = int(math.floor(r / pitch + 1e-12))
    _check_cells("r/resolution", (2 * m + 1) ** k)
    axis = pitch * np.arange(-m, m + 1)
    grids = np.meshgrid(*([axis] * int(k)), indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    keep = np.einsum("ij,ij->i", pts, pts) <= r * r + 1e-12
    pts = pts[keep]
    # squared differences summed into one n^2 buffer an axis at a time,
    # in the order einsum("ijk,ijk->ij") sums three: (x^2 + z^2) + y^2
    dist = np.zeros((len(pts), len(pts)))
    sq = np.empty_like(dist)
    for a in (0, 2, 1) if k == 3 else range(int(k)):
        np.subtract.outer(pts[:, a], pts[:, a], out=sq)
        np.multiply(sq, sq, out=sq)
        dist += sq
    np.sqrt(dist, out=dist)
    meta = {"generator": "ball", "pitch": pitch,
            "params": {"k": k, "r": r, "resolution": resolution}}
    return FiniteMMS(dist=dist, weight=np.full(len(pts), volume),
                     coords=pts, meta=meta)


# === the generator table ===

GENERATORS = {
    "segment": lambda p: segment_space(**p),
    "circle": lambda p: circle_space(**p),
    "earring": lambda p: hawaiian_truncation(**p),
    "necklace": lambda p: necklace(NecklaceParams(**p)),
    "ball": lambda p: euclidean_ball_grid(**p),
}


def generate(kind: str, params: dict) -> FiniteMMS:
    """Run generator ``kind``, one of ``GENERATORS``, with the keyword
    arguments ``params`` (the necklace takes the ``NecklaceParams``
    fields).  The space records ``kind`` and ``params`` in its meta."""
    build = GENERATORS.get(kind)
    if build is None:
        raise ValueError(f"unknown generator kind {kind!r}")
    return build(params)
