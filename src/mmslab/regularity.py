"""Gromov-Hausdorff comparisons and regular-point classification.

The exact distance is a branch-and-bound search over correspondences,
whose cost grows exponentially with the point count, so balls are
subsampled to ``subsample`` points (8 by default, 10 in the necklace
scans) by farthest-point sampling and compared with equally subsampled
Euclidean model balls; verdicts are three-valued because discretization
cannot decide points arbitrarily close to the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mmslab.core import FiniteMMS, ball_indices, cell_id, require_positive

GH_SIZE_LIMIT = 8
# Most radii a scan takes: at 64 radii a 16-cell segment scans in about
# 2.5 s with k 1, 2 and subsample 8, and 13 s with k 1, 2, 3, each under
# 3 MB of tracemalloc peak (2-core x86_64); every radius adds one exact
# GH search per dimension.
MAX_R_SAMPLES = 64

# model-ball grid cells per radius for surface dimensions, and the cap
# on 1D model cells (1D grids track the scanned space's own pitch)
_MODEL_CELLS = {2: 24, 3: 10}
_MAX_1D_CELLS = 4096


# === correspondences ===

@dataclass(frozen=True)
class GHCorrespondence:
    """Relation between two point sets covering both sides, with its
    worst additive distance distortion."""

    relation: tuple
    distortion: float


def correspondence_distortion(x: FiniteMMS, y: FiniteMMS, relation) -> float:
    pairs = np.asarray(list(relation), dtype=int)
    i, j = pairs[:, 0], pairs[:, 1]
    return float(np.max(np.abs(x.dist[np.ix_(i, i)] - y.dist[np.ix_(j, j)])))


def gh_exact(x: FiniteMMS, y: FiniteMMS, size_limit: int = GH_SIZE_LIMIT):
    """Exact Gromov-Hausdorff distance of two small spaces.

    Returns (value, witness).  Every correspondence contains the graph of
    a map X -> Y joined with the transposed graph of a map Y -> X, and
    dropping pairs never increases distortion, so minimizing over such
    double graphs is exact.  One depth-first search assigns the forward
    map point by point and then the backward map.  Children of a node
    are visited in order of their incremental distortion, so once one of
    them reaches the best complete candidate the rest of the row is
    pruned with it; a greedy pass seeds that bound before the search
    starts.  A node that keeps any child scores all of them in one
    step: the grown pair matrix of every candidate partner, stacked,
    and each one's bottleneck relaxation, which prunes the child before
    the search descends into it.
    """
    nx, ny = x.n, y.n
    if nx > size_limit or ny > size_limit:
        raise ValueError("space too large for the exact search")
    dx, dy = x.dist, y.dist
    eccx, eccy = dx.max(axis=1), dy.max(axis=1)

    order_x = np.argsort(-eccx, kind="stable")
    order_y = np.argsort(-eccy, kind="stable")

    f = np.full(nx, -1)
    g = np.full(ny, -1)

    # pair[p, q] accumulates max over assigned pairs (i, j) of
    # lone[i, j, p, q] = |dx(p, i) - dy(q, j)|: both the incremental
    # cost of adding the pair (p, q) and the bottleneck relaxation used
    # for pruning, since every point still needs some partner with pair
    # value below the final distortion.
    lone = dx.T[:, None, :, None] - dy.T[None, :, None, :]
    np.abs(lone, out=lone)

    # one step per point: the forward map's rows, then the backward
    # map's columns; a step fixes the partner m of point k on its side
    # and raises pair to gap[m], lone of the pair (k, m) or (m, k)
    steps = ([(f, int(i), True, lone[i]) for i in order_x]
             + [(g, int(j), False, lone[:, j]) for j in order_y])

    # greedy warm start for the pruning bound
    pair0 = np.zeros((nx, ny))
    for assign, k, row, gap in steps:
        m = int(np.argmin(pair0[k] if row else pair0[:, k]))
        assign[k] = m
        pair0 = np.maximum(pair0, gap[m])
    seed = sorted({(int(i), int(f[i])) for i in range(nx)}
                  | {(int(g[j]), int(j)) for j in range(ny)})
    best = correspondence_distortion(x, y, seed)
    best_pair = (f.copy(), g.copy())
    f[:] = -1
    g[:] = -1

    # once the incumbent hits the proven lower bound the rest of the
    # tree is pure certification; stop instead of crawling it
    floor = 2.0 * gh_lower_bound(x, y)
    done = best <= floor + 1e-15

    def walk(depth, cur, pair):
        nonlocal best, best_pair, done
        if depth == len(steps):
            best = cur
            best_pair = (f.copy(), g.copy())
            done = best <= floor + 1e-15
            return
        assign, k, row, gap = steps[depth]
        cost = pair[k] if row else pair[:, k]
        order, cost = cost.argsort(kind="stable").tolist(), cost.tolist()
        grown = None
        for m in order:
            if done:
                return
            v = max(cur, cost[m])
            if v >= best:
                break
            if grown is None:
                # every child at once, and the two halves of each one's
                # relaxation: the worst best partner of a point of Y,
                # then of a point of X (bare ufunc reductions, since the
                # array methods add a Python call per reduction)
                grown = np.maximum(pair, gap)
                lo_y = np.maximum.reduce(np.minimum.reduce(grown, 1), 1)
                lo_x = np.maximum.reduce(np.minimum.reduce(grown, 2), 1)
                lo_y, lo_x = lo_y.tolist(), lo_x.tolist()
            if max(v, max(lo_y[m], lo_x[m])) < best:
                assign[k] = m
                walk(depth + 1, v, grown[m])
        assign[k] = -1

    if not done:
        walk(0, 0.0, np.zeros((nx, ny)))
    ff, gg = best_pair
    relation = sorted({(int(i), int(ff[i])) for i in range(nx)}
                      | {(int(gg[j]), int(j)) for j in range(ny)})
    distortion = correspondence_distortion(x, y, relation)
    return distortion / 2.0, GHCorrespondence(relation=tuple(relation),
                                              distortion=distortion)


def gh_lower_bound(x: FiniteMMS, y: FiniteMMS) -> float:
    """Half the larger of the diameter gap and the Hausdorff distance
    between the two sets of realized distance values.

    Any correspondence of distortion D matches every realized distance
    of one space to a realized distance of the other within D, so this
    never exceeds the exact distance.
    """
    vx = np.unique(x.dist)
    vy = np.unique(y.dist)

    def directed(a, b):
        pos = np.searchsorted(b, a)
        left = b[np.clip(pos - 1, 0, len(b) - 1)]
        right = b[np.clip(pos, 0, len(b) - 1)]
        return float(np.max(np.minimum(np.abs(a - left), np.abs(a - right))))

    hausdorff = max(directed(vx, vy), directed(vy, vx))
    gap = abs(x.diameter - y.diameter)
    return 0.5 * max(gap, hausdorff)


# === subsampling ===

def _fps(row, count, start, limit):
    """Farthest-point sampling from ``start``; ``row(i)`` yields the
    distances from point i to everything.  Returns (indices, cover
    radius of the selection).

    Separations within a relative 1e-9 of the best are ties and go to
    the lowest index, so two spaces carrying bitwise-near-identical
    distance matrices select the same configurations instead of
    diverging on rounding dust.
    """
    chosen = [int(start)]
    mind = np.array(row(start), dtype=float, copy=True)
    while len(chosen) < min(limit, count):
        top = float(mind.max())
        if top <= 0.0:
            break
        nxt = int(np.flatnonzero(mind >= top - max(1e-9 * top, 1e-15))[0])
        chosen.append(nxt)
        mind = np.minimum(mind, row(nxt))
    return chosen, float(mind.max())


def _model_ball(k, r, space_pitch):
    """Grid coordinates of the Euclidean r-ball in dimension k, the index
    of the origin, and the grid pitch.

    In dimension one the grid reuses the scanned space's own pitch, so a
    space that is locally a segment produces a model that is the same
    lattice and farthest-point sampling selects matching configurations
    on both sides.  Higher dimensions use a fixed cell count per radius
    to keep the grid size bounded.
    """
    if k == 1:
        pitch = space_pitch if r / space_pitch <= _MAX_1D_CELLS \
            else r / _MAX_1D_CELLS
        m = int(math.floor(r / pitch * (1.0 + 1e-12)))
    else:
        m = _MODEL_CELLS[k]
        pitch = r / m
    axis = pitch * np.arange(-m, m + 1)
    grids = np.meshgrid(*([axis] * k), indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    pts = pts[np.einsum("ij,ij->i", pts, pts) <= r * r + 1e-12]
    origin = int(np.argmin(np.einsum("ij,ij->i", pts, pts)))
    return pts, origin, pitch


def _sample_space(dist):
    return FiniteMMS(dist=dist, weight=np.ones(dist.shape[0]))


# === the regular-set scan ===

@dataclass(frozen=True)
class ScanRow:
    r: float
    k: int
    estimate: float
    ratio: float
    err_verdict: float
    err_sound: float
    rho_x: float
    rho_e: float
    ball_cells: int
    verdict: str


@dataclass(frozen=True)
class RegularityReport:
    x: int
    epsilon: float
    delta: float
    r_values: tuple
    verdicts: dict
    rows: tuple
    degenerate: bool

    def verdict(self, k: int) -> str:
        return self.verdicts[k]


def radius_levels(delta: float, count: int) -> np.ndarray:
    """Geometric radius ladder below delta, spanning a factor of 16."""
    return delta * (1.0 / 16.0) ** (np.arange(count, 0, -1) / count)


def _check_scan(eps, delta, k_set, r_samples, subsample):
    """The scan's inputs: ``eps`` and ``delta`` finite and positive,
    dimensions 1, 2 or 3 only, between 1 and ``MAX_R_SAMPLES`` radii,
    and at least one sample point."""
    require_positive("eps", eps)
    require_positive("delta", delta)
    for k in k_set:
        if k not in (1, 2, 3):
            raise ValueError(f"k_set may hold only the dimensions 1, 2 and 3,"
                             f" got {k}")
    if not r_samples >= 1:
        raise ValueError(f"r_samples must be at least 1, got {r_samples}")
    if not r_samples <= MAX_R_SAMPLES:
        raise ValueError(f"r_samples must be at most {MAX_R_SAMPLES}, "
                         f"got {r_samples}")
    if not subsample >= 1:
        raise ValueError(f"subsample must be at least 1, got {subsample}")


def epsilon_regular_scan(space: FiniteMMS, x: int, eps: float, delta: float,
                         k_set=(1, 2, 3), r_samples: int = 12,
                         subsample: int = GH_SIZE_LIMIT) -> RegularityReport:
    """Compare the balls around ``x`` with Euclidean model balls at a
    ladder of radii below ``delta``.

    Each ball and each model is reduced to at most ``subsample`` points
    by farthest-point sampling from the center, and the exact distance
    of the reductions is the recorded estimate.  Two error scales ride
    along.  ``err_sound`` is the rigorous bracket: the true ball
    distance lies within the sum of the two cover radii of the estimate.
    ``err_verdict`` drives the three-valued verdicts and is the matched
    -sampling error, the difference of the cover radii plus one grid
    pitch of either side; it reflects that center-started sampling of
    near-isometric spaces produces near-identical configurations, and it
    is the scale on which the estimate tracks the true distance in
    calibration runs.  A ball that never drops below the whole space
    makes every verdict inconclusive.  A NaN, infinite or nonpositive
    ``eps`` or ``delta``, a dimension in ``k_set`` other than 1, 2 or 3,
    an ``r_samples`` or a ``subsample`` below 1, or an ``r_samples``
    above ``MAX_R_SAMPLES`` raises ``ValueError`` before any work.
    """
    _check_scan(eps, delta, k_set, r_samples, subsample)
    x = cell_id(space, x)
    levels = radius_levels(delta, r_samples)
    pitch_x = space.pitch()
    models = _model_samples(levels, k_set, pitch_x, int(subsample))
    return _scan(space, x, eps, delta, k_set, levels, pitch_x, models,
                 int(subsample))


def _model_samples(levels, k_set, pitch_x, subsample):
    """Per radius of ``levels``, a dict from each dimension in ``k_set``
    to its reduced Euclidean model ball: (sample space, cover radius,
    grid pitch).  They depend on the scanned space only through its
    pitch ``pitch_x``, so one set serves every center."""
    models = []
    for r in levels:
        per_k = {}
        for k in k_set:
            pts, origin, pitch_e = _model_ball(k, float(r), pitch_x)
            sel_e, rho_e = _fps(lambda i: np.linalg.norm(pts - pts[i], axis=1),
                                len(pts), origin, subsample)
            chosen = pts[sel_e]
            diff = chosen[:, None, :] - chosen[None, :, :]
            se = _sample_space(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)))
            per_k[k] = se, rho_e, pitch_e
        models.append(per_k)
    return models


def _scan(space, x, eps, delta, k_set, levels, pitch_x, models, subsample):
    """The scan of the checked center ``x`` against the model samples of
    ``_model_samples``."""
    rows = []
    degenerate = True
    for r, per_k in zip(levels, models):
        bidx = ball_indices(space, x, float(r))
        if len(bidx) < space.n:
            degenerate = False
        dsub = space.dist[np.ix_(bidx, bidx)]
        pos_x = int(np.flatnonzero(bidx == x)[0])
        sel, rho_x = _fps(lambda i: dsub[i], len(bidx), pos_x, subsample)
        sx = _sample_space(dsub[np.ix_(sel, sel)])
        for k in k_set:
            se, rho_e, pitch_e = per_k[k]
            est, _ = gh_exact(sx, se, size_limit=subsample)
            err_v = abs(rho_x - rho_e) + pitch_x + pitch_e
            err_s = rho_x + rho_e
            if est + err_v < eps * r:
                verdict = "in"
            elif est - err_v >= eps * r:
                verdict = "out"
            else:
                verdict = "inconclusive"
            rows.append(ScanRow(r=float(r), k=int(k), estimate=est,
                                ratio=est / float(r), err_verdict=err_v,
                                err_sound=err_s, rho_x=rho_x, rho_e=rho_e,
                                ball_cells=len(bidx), verdict=verdict))
    verdicts = {}
    for k in k_set:
        sub = [row for row in rows if row.k == k]
        if degenerate:
            verdicts[int(k)] = "inconclusive"
        elif any(row.verdict == "out" for row in sub):
            verdicts[int(k)] = "out"
        elif all(row.verdict == "in" for row in sub):
            verdicts[int(k)] = "in"
        else:
            verdicts[int(k)] = "inconclusive"
    return RegularityReport(x=int(x), epsilon=float(eps), delta=float(delta),
                            r_values=tuple(float(r) for r in levels),
                            verdicts=verdicts, rows=tuple(rows),
                            degenerate=degenerate)


# === aggregated masses ===

@dataclass(frozen=True)
class MassSplit:
    in_mass: float
    out_mass: float
    inconclusive_mass: float


@dataclass(frozen=True)
class RegularMassReport:
    per_k: dict
    overall: MassSplit
    scanned: tuple
    scanned_mass: float


def regular_set_measure(space: FiniteMMS, eps: float, delta: float,
                        k_set=(1, 2, 3), budget: int = 64,
                        r_samples: int = 12,
                        subsample: int = GH_SIZE_LIMIT) -> RegularMassReport:
    """Scan a budgeted deterministic sample of cells and aggregate their
    weights by verdict.

    Masses are of scanned cells only; nothing is extrapolated to the
    rest of the space.  A point counts as regular overall when some
    dimension in ``k_set`` accepts it, as irregular when every dimension
    rejects it, and as inconclusive otherwise (in particular whenever
    ``k_set`` is empty).  The inputs ``epsilon_regular_scan`` rejects,
    and a negative ``budget``, raise ``ValueError`` before any work, even
    when no cell is scanned.  The model balls are built and sampled once
    per call and shared by every scanned cell.
    """
    _check_scan(eps, delta, k_set, r_samples, subsample)
    if not budget >= 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
    n = space.n
    if n <= budget:
        scanned = np.arange(n)
    else:
        scanned = np.unique(np.round(np.linspace(0, n - 1, budget)).astype(int))
    levels = radius_levels(delta, r_samples)
    pitch_x = space.pitch()
    models = _model_samples(levels, k_set, pitch_x, int(subsample))
    acc_k = {int(k): [0.0, 0.0, 0.0] for k in k_set}
    acc_all = [0.0, 0.0, 0.0]
    slot = {"in": 0, "out": 1, "inconclusive": 2}
    for x in scanned:
        rep = _scan(space, int(x), eps, delta, k_set, levels, pitch_x, models,
                    int(subsample))
        w = float(space.weight[x])
        for k, v in rep.verdicts.items():
            acc_k[k][slot[v]] += w
        if any(v == "in" for v in rep.verdicts.values()):
            acc_all[0] += w
        elif rep.verdicts and all(v == "out" for v in rep.verdicts.values()):
            acc_all[1] += w
        else:
            acc_all[2] += w
    return RegularMassReport(
        per_k={k: MassSplit(*acc) for k, acc in acc_k.items()},
        overall=MassSplit(*acc_all),
        scanned=tuple(int(v) for v in scanned),
        scanned_mass=float(space.weight[scanned].sum()),
    )
