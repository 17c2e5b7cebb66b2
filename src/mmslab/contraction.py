"""Measure contraction checks and the bead-chain spreading schedule.

The contraction inequality compared here is the (2,3) model bound: mass
transported from a point x to a set A and stopped at time t must fit
under the reference measure after weighting by t sin^2(t l)/sin^2(l),
where l is the travel distance.  ``mcp_check`` verifies this cell by
cell in mass units.  ``necklace_schedule`` builds the explicit spreading
plan across a bead chain, and ``schedule_density_check`` certifies its
fiber-aggregated density profile together with the height-ratio law that
drives it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from mmslab.core import (TRIANGLE_BLOCK, DiscreteGeodesic, FiniteMMS,
                         cell_id, constant_speed_defect, geodesic_tolerance,
                         require_nonnegative, require_positive)
from mmslab.generators import DIAMOND_SLOPE, NecklaceParams, necklace_fibers
from mmslab.transport import MASS_TOL, GeodesicPlan, plan_marginals

HALF_PI = math.pi / 2.0
DEGENERATE_LENGTH = 1e-12
# Most Chebyshev times: ``mcp_check`` on a 100-atom plan then takes about
# 0.1 s and 1.5 MB (2-core x86_64).
MAX_TIME_SAMPLES = 4097
# Most grid points per axis of ``scalar_bound``: three 4096 x 4096 float
# temporaries, about 400 MB and 0.7 s (2-core x86_64).
MAX_SCALAR_SAMPLES = 4096


def _sin_squared(x) -> np.ndarray:
    """sin(x)^2 entry by entry with libm's ``sin`` and ``pow``, as the
    reports have always rounded it, so the result does not depend on the
    SIMD kernels numpy picks at run time."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel().tolist()
    return np.fromiter(map(math.pow, map(math.sin, flat), repeat(2.0)),
                       float, len(flat)).reshape(x.shape)


def model_coefficient(t, length):
    """Contraction weight t sin^2(t l)/sin^2(l), with the t^3 limit for
    degenerate lengths; broadcasts over array arguments.

    sin^2(l) is taken once per entry of ``length``, before broadcasting,
    and the cube is two float products, (t * t) * t.
    """
    t = np.asarray(t, dtype=float)
    length = np.asarray(length, dtype=float)
    small = length < DEGENERATE_LENGTH
    coef = t * _sin_squared(t * length) / _sin_squared(np.where(small, 1.0,
                                                                length))
    return np.where(small, t * t * t, coef)


def chebyshev_times(count: int = 33) -> np.ndarray:
    """Chebyshev-spaced samples of [0, 1], endpoints included; ``count``
    must lie in [2, ``MAX_TIME_SAMPLES``]."""
    if not 2 <= count <= MAX_TIME_SAMPLES:
        raise ValueError(f"count must lie in [2, {MAX_TIME_SAMPLES}],"
                         f" got {count}")
    j = np.arange(count)
    return (1.0 - np.cos(math.pi * j / (count - 1))) / 2.0


# === the pointwise contraction check ===

@dataclass(frozen=True)
class McpReport:
    ok: bool
    allowance: float
    worst_slack: float
    worst_t: float
    worst_cell: int
    mass_target: float
    marginal_defect: float
    rows: tuple                  # worst cell per t: (t, cell, lhs, rhs, slack)


def mcp_check(space: FiniteMMS, plan: GeodesicPlan,
              t_samples=None, allowance: float | None = None) -> McpReport:
    """Cell-by-cell contraction inequality for a point-to-set plan.

    For every sampled time the transported mass landing in a cell,
    weighted by the model coefficient and by the target mass, must stay
    below the cell weight up to ``allowance`` (mass units, default eight
    grid pitches).  ``rows`` holds the worst cell of every sorted time
    at which some mass lands, and the report's worst row is the first
    of least slack.

    The sorted times are evaluated in blocks of about ``TRIANGLE_BLOCK``
    (time, cell) entries: each block places every atom with one
    ``nodes_at`` call, takes the coefficients from one
    ``model_coefficient`` table, and sums the landing masses of all its
    times with one ``bincount`` in plan order, so memory stays bounded
    at ``MAX_TIME_SAMPLES`` times.  ``t_samples`` empty, not 1-D, out of
    [0, 1] or landing no mass (t = 0 alone), and a NaN, infinite or
    negative ``allowance`` raise ``ValueError``.
    """
    if t_samples is None:
        t_samples = chebyshev_times()
    ts = np.asarray(t_samples, dtype=float)
    if ts.ndim != 1 or not ts.size:
        raise ValueError("t_samples must be a nonempty 1-D sequence of"
                         f" times, got shape {ts.shape}")
    ts = np.sort(ts)
    if allowance is None:
        allowance = 8.0 * space.pitch()
    require_nonnegative("allowance", allowance)

    e0, e1 = plan_marginals(space, plan)
    if int((e0 > MASS_TOL).sum()) != 1:
        raise ValueError("plan must start from a single cell")
    support = np.flatnonzero(e1 > MASS_TOL)
    mass_target = float(space.weight[support].sum())
    uniform = np.zeros(space.n)
    uniform[support] = space.weight[support] / mass_target
    marginal_defect = float(np.max(np.abs(e1 - uniform)))

    n = space.n
    step = max(1, TRIANGLE_BLOCK // max(n, len(plan.lengths)))
    found = []                  # (times, cells, lhs, slack) per block
    for s in range(0, len(ts), step):
        tb = ts[s:s + step]
        at = np.arange(len(tb))
        keys = plan.nodes_at(tb)
        keys += at[:, None] * n
        mass = plan.masses * model_coefficient(tb[:, None], plan.lengths)
        mass *= mass_target
        lhs = np.bincount(keys.ravel(), mass.ravel(),
                          minlength=len(tb) * n).reshape(len(tb), n)
        slack = np.where(lhs > 0, space.weight - lhs, np.inf)
        cells = np.argmin(slack, axis=1)
        least = slack[at, cells]
        hit = least < np.inf    # rows where some mass lands
        found.append((tb[hit], cells[hit], lhs[at[hit], cells[hit]],
                      least[hit]))
    t_hit, cells, lhs, slack = (np.concatenate(a) for a in zip(*found))
    if not len(slack):
        raise ValueError("t_samples: no sampled time lands any mass, so "
                         "there is nothing to check")
    rows = tuple(zip(t_hit.tolist(), cells.tolist(), lhs.tolist(),
                     space.weight[cells].tolist(), slack.tolist()))
    worst = rows[int(np.argmin(slack))]

    return McpReport(
        ok=bool(worst[4] + allowance >= 0.0),
        allowance=float(allowance),
        worst_slack=worst[4],
        worst_t=worst[0],
        worst_cell=worst[1],
        mass_target=mass_target,
        marginal_defect=marginal_defect,
        rows=rows,
    )


# === the bead-chain schedule ===

@dataclass(frozen=True)
class Schedule:
    """Spreading plan across a bead chain with its landmark times."""

    plan: GeodesicPlan
    source: int
    target_cells: tuple
    spread_cells: tuple
    x_source: float
    x_spread: float              # snapped fiber abscissa of the spread set
    x_spread_exact: float        # closed-form abscissa before snapping
    x_target: float
    length: float
    t_spread: float
    t_flat_start: float
    t_flat_end: float
    kappa_spread: int
    kappa_target: int
    fiber_count_spread: int
    fiber_count_target: int
    max_segment_slope: float
    worst_speed_defect: float


def necklace_schedule(space: FiniteMMS, source: int, target_fiber: int,
                      target_count: int) -> Schedule:
    """Spread a point mass sitting in one bead over a centered block of
    cells on a fiber of a bead further right.

    The plan first fans out to a spread fiber inside the source bead
    (placed one fifth of the way from the source abscissa to the bead's
    right edge, measured after a 4/5 contraction toward it), rides the
    bead tents down to the axis, crosses the gap flat, and fans into the
    target cells.  Atom masses are uniform, so both marginals are exact.
    All atoms share the length x_target - x_source; nodes sit on every
    fiber in between, so the spread time is an exact node time while the
    two bead-edge times fall between columns.  Every atom must keep
    constant speed within ``geodesic_tolerance``.
    """
    fiber_of_cell, fx, _, fcount, fstart, bead_of_fiber = necklace_fibers(space)
    beads = NecklaceParams(**space.meta["params"]).beads
    ys = space.coords[:, 1]     # cell heights, as ``necklace`` placed them

    f_src = int(fiber_of_cell[cell_id(space, source)])
    b_src = int(bead_of_fiber[f_src])
    b_tgt = int(bead_of_fiber[target_fiber])
    if b_src < 0 or b_tgt < 0:
        raise ValueError("source and target must sit inside beads")
    if b_tgt <= b_src:
        raise ValueError("target bead must lie to the right of the source bead")
    x1, r1 = beads[b_src]
    x2, r2 = beads[b_tgt]
    x_src = float(fx[f_src])
    y_src = float(ys[source])
    x_tgt = float(fx[target_fiber])
    k_tgt = int(fcount[target_fiber])
    if not 2 <= target_count <= k_tgt or target_count % 2:
        raise ValueError("target count must be even and fit the fiber")

    # spread abscissa: contract toward the source, then step a fifth of
    # the remaining way into the bead
    x_hat_exact = x1 + (r1 / 4.0 + 4.0 * (x_src - x1)) / 5.0
    f_hat = int(np.argmin(np.abs(fx - x_hat_exact)))
    if bead_of_fiber[f_hat] != b_src:
        raise ValueError("spread fiber escapes the source bead")
    x_hat = float(fx[f_hat])
    k_hat = int(fcount[f_hat])
    kappa = 2 * round(k_hat * target_count / (2.0 * k_tgt))
    kappa = int(min(max(kappa, 2), k_hat))

    length = x_tgt - x_src
    right_edge = x1 + r1 / 4.0
    left_edge = x2 - r2 / 4.0
    lo = int(fstart[f_hat] + (k_hat - kappa) // 2)
    spread_cells = tuple(range(lo, lo + kappa))
    lo = int(fstart[target_fiber] + (k_tgt - target_count) // 2)
    target_cells = tuple(range(lo, lo + target_count))

    fibers = range(f_src, target_fiber + 1)
    times = tuple((float(fx[k]) - x_src) / length for k in fibers)
    atoms = []
    slope_max = 0.0
    defect_max = 0.0
    for ci in spread_cells:
        y_hat = float(ys[ci])
        for cj in target_cells:
            y_tgt = float(ys[cj])
            breaks = [(x_src, y_src), (x_hat, y_hat)]
            if x_hat < x1:
                # ride the tent ray through the apex fiber before falling
                breaks.append((x1, y_hat * (r1 / 4.0) / (x_hat - (x1 - r1 / 4.0))))
            breaks.append((right_edge, 0.0))
            breaks.append((left_edge, 0.0))
            if x_tgt > x2:
                # enter through the apex of the target bead
                breaks.append((x2, y_tgt * (r2 / 4.0) / ((x2 + r2 / 4.0) - x_tgt)))
            breaks.append((x_tgt, y_tgt))
            for (xa, ya), (xb, yb) in zip(breaks, breaks[1:]):
                if xb - xa > 1e-15:
                    slope_max = max(slope_max, abs(yb - ya) / (xb - xa))
            wants = np.interp(fx[f_src:target_fiber + 1], *zip(*breaks))
            nodes = []
            for k, want in zip(fibers, wants):
                lo = int(fstart[k])
                fiber_ys = ys[lo:lo + int(fcount[k])]
                nodes.append(lo + int(np.argmin(np.abs(fiber_ys - want))))
            g = DiscreteGeodesic(nodes=tuple(nodes), times=times, length=length)
            defect_max = max(defect_max, constant_speed_defect(space, g))
            atoms.append((g, 1.0 / (kappa * target_count)))
    tol = geodesic_tolerance(space)
    if defect_max > tol:
        raise ValueError(
            f"schedule atoms miss constant speed by {defect_max:g}"
            f" (tolerance {tol:g})")

    return Schedule(
        plan=GeodesicPlan(atoms=tuple(atoms)),
        source=int(source),
        target_cells=target_cells,
        spread_cells=spread_cells,
        x_source=x_src,
        x_spread=x_hat,
        x_spread_exact=float(x_hat_exact),
        x_target=x_tgt,
        length=float(length),
        t_spread=(x_hat - x_src) / length,
        t_flat_start=(right_edge - x_src) / length,
        t_flat_end=(left_edge - x_src) / length,
        kappa_spread=kappa,
        kappa_target=int(target_count),
        fiber_count_spread=k_hat,
        fiber_count_target=k_tgt,
        max_segment_slope=float(slope_max),
        worst_speed_defect=float(defect_max),
    )


# === aggregated density profile of a schedule ===

@dataclass(frozen=True)
class DensityReport:
    ok: bool
    allowance: float
    worst_slack: float
    worst_t: float
    rows: tuple                  # (t, support mass, lhs, rhs, slack)
    ratio_defect: float
    height_rows: tuple           # (t, ratio, bound, ok)
    heights_ok: bool
    marginal_defect: float

    @property
    def all_ok(self) -> bool:
        return self.ok and self.heights_ok


def schedule_density_check(space: FiniteMMS, sched: Schedule,
                           allowance: float | None = None) -> DensityReport:
    """Fiber-aggregated density bound for a bead-chain schedule.

    At every node time t > 0, and at the three landmark times of the
    schedule, the average interpolant density, normalized by the target
    mass, must stay below the model profile:
    m(A)/(t m(supp_t)) <= sin^2(l)/(t sin^2(t l)) + allowance.  At t = 1
    the two sides agree exactly.  The report also carries the grid ratio
    defect between the spread and target fibers and the height-ratio law
    h(x_t)/h(x_spread) <= 5/4 - t/4 for t up to the spread time,
    evaluated with the closed-form bead profile.

    The certificate is sharp when the target fiber sits on the rising
    slope of its bead: there the ray bundle compresses and the occupied
    cells over-cover it.  Entering through the bead apex instead thins
    the discrete support on the descent (rays skip cells on taller
    fibers), which inflates the left side by a grid-count factor and can
    fail the bound even though the plan itself is sound.  A NaN,
    infinite or negative ``allowance`` raises.
    """
    if allowance is None:
        allowance = 8.0 * space.pitch()
    require_nonnegative("allowance", allowance)
    _, fx, _, _, _, bead_of_fiber = necklace_fibers(space)
    beads = NecklaceParams(**space.meta["params"]).beads

    plan = sched.plan
    e0, e1 = plan_marginals(space, plan)
    uniform = np.zeros(space.n)
    idx = np.asarray(sched.target_cells)
    uniform[idx] = space.weight[idx] / space.weight[idx].sum()
    marginal_defect = max(
        float(np.max(np.abs(e1 - uniform))),
        float(abs(e0[sched.source] - 1.0)))

    mass_target = float(space.weight[idx].sum())
    l = sched.length
    # node times plus the landmark times; the bead edges fall between
    # fiber columns, so they are not node times and must be added
    times = sorted(set(plan.times[:plan.starts[1]].tolist())
                   | {sched.t_spread, sched.t_flat_start, sched.t_flat_end})
    rows = []
    worst = (math.inf, 0.0)
    positive = [t for t in times if t > 0.0]
    for t, nodes in zip(positive, plan.nodes_at(positive)):
        supp_mass = float(space.weight[np.unique(nodes)].sum())
        lhs = mass_target / (t * supp_mass)
        rhs = math.sin(l) ** 2 / (t * math.sin(t * l) ** 2)
        slack = rhs - lhs
        rows.append((float(t), supp_mass, lhs, rhs, slack))
        if slack < worst[0]:
            worst = (slack, float(t))

    rho_hat = sched.fiber_count_spread / sched.kappa_spread
    rho_tgt = sched.fiber_count_target / sched.kappa_target
    ratio_defect = abs(rho_hat / rho_tgt - 1.0)

    # height-ratio law along the first leg, from the closed-form profile
    # ``necklace`` lays the bead fibers out by
    b_src = int(bead_of_fiber[np.argmin(np.abs(fx - sched.x_spread))])
    bx, br = beads[b_src]
    h_spread = DIAMOND_SLOPE * (br / 4 - abs(sched.x_spread_exact - bx))
    height_rows = []
    heights_ok = True
    for t in times:
        if t > sched.t_spread + 1e-15:
            break
        x_t = sched.x_source + t * l
        ratio = DIAMOND_SLOPE * (br / 4 - abs(x_t - bx)) / h_spread
        bound = 1.25 - t / 4.0
        ok = bool(ratio <= bound + 1e-9)
        heights_ok = heights_ok and ok
        height_rows.append((float(t), float(ratio), float(bound), ok))

    return DensityReport(
        ok=bool(worst[0] + allowance >= 0.0),
        allowance=float(allowance),
        worst_slack=worst[0],
        worst_t=worst[1],
        rows=tuple(rows),
        ratio_defect=float(ratio_defect),
        height_rows=tuple(height_rows),
        heights_ok=heights_ok,
        marginal_defect=marginal_defect,
    )


# === the scalar coefficient bound ===

@dataclass(frozen=True)
class ScalarBoundReport:
    ok: bool
    min_margin: float
    argmin_t: float
    argmin_d: float
    samples: int


def scalar_bound(t_max: float = 0.2, d_max: float = HALF_PI + 0.25,
                 samples: int = 2000, cushion: float = 1e-12) -> ScalarBoundReport:
    """Grid check of 5/4 - t/4 <= t sin^2(d)/sin^2(t d) on
    (0, t_max] x (0, d_max].

    ``t_max`` and ``d_max`` must be finite and positive with
    t_max * d_max < pi, the lemma's domain (past it sin(t d) reaches 0),
    ``cushion`` finite and nonnegative, and ``samples`` in
    [2, ``MAX_SCALAR_SAMPLES``]; anything else raises ``ValueError``
    before the grid is built.
    """
    require_positive("t_max", t_max)
    require_positive("d_max", d_max)
    if not t_max * d_max < math.pi:
        raise ValueError(f"t_max must keep t_max * d_max below pi, got "
                         f"{t_max} * {d_max}")
    require_nonnegative("cushion", cushion)
    if not 2 <= samples <= MAX_SCALAR_SAMPLES:
        raise ValueError(f"samples must lie in [2, {MAX_SCALAR_SAMPLES}],"
                         f" got {samples}")
    t = np.linspace(1e-9, t_max, samples)[:, None]
    d = np.linspace(1e-6, d_max, samples)[None, :]
    margin = t * np.sin(d) ** 2 / np.sin(t * d) ** 2 - (1.25 - t / 4.0)
    k = int(np.argmin(margin))
    i, j = divmod(k, samples)
    worst = float(margin[i, j])
    return ScalarBoundReport(
        ok=bool(worst >= -cushion),
        min_margin=worst,
        argmin_t=float(t[i, 0]),
        argmin_d=float(d[0, j]),
        samples=samples,
    )
