"""Discrete quadratic optimal transport on finite metric measure spaces.

The squared 2-Wasserstein cost between two mass vectors is the minimum of
sum sigma_ij d(i,j)^2 over couplings sigma with the given marginals.  Two
independent routes compute it: an LP solve (HiGHS) and an exact enumeration
of basic feasible couplings for tiny supports.  Couplings lift to plans of
discrete geodesics, which is where pushforwards, interpolants, and the
fixed-set symmetrization competitor live.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from mmslab.core import (DiscreteGeodesic, FiniteMMS, cell_id,
                         geodesics_between, require_seed)
from mmslab.symmetry import DEFAULT_ISO_TOL, invert, isometry_from_perm

# scipy loads inside the functions that use it, so that a process which
# never calls them starts without it.
MASS_TOL = 1e-12
BRUTE_SUPPORT_LIMIT = 5
# an edge is tight when its reduced cost is at most TIGHT_REL * max cost
TIGHT_REL = 1e-9
# Most random objectives ``uniqueness_probe`` tries; each solves two LPs on
# the tight face, about 12 ms for 75 + 75 lattice atoms and 140 ms for
# 300 + 300 (2-core x86_64).
MAX_PROBE_DRAWS = 32


# === measures ===

def as_measure(space: FiniteMMS, spec) -> np.ndarray:
    """Coerce a measure description to a dense nonnegative mass vector.

    Accepts a dense vector, a ``{point: mass}`` mapping, or an iterable of
    ``(point, mass)`` pairs; a point outside ``[0, n)``, a mass that is not
    a real number (a bool, a string), a negative mass and masses without
    a finite positive sum raise.
    """
    out = np.zeros(space.n)
    if isinstance(spec, np.ndarray):
        if spec.shape != (space.n,):
            raise ValueError(f"expected a vector of {space.n} masses")
        if spec.dtype.kind not in "iuf":
            raise ValueError(f"masses must be real numbers, got {spec.dtype}")
        out[:] = spec
    else:
        pairs = spec.items() if isinstance(spec, dict) else spec
        for i, m in pairs:
            if isinstance(m, bool) or not isinstance(m, numbers.Real):
                raise ValueError(f"mass {m!r} is not a real number")
            out[cell_id(space, i)] += float(m)
    with np.errstate(over="ignore"):    # checked right below
        total = out.sum()
    if not np.isfinite(total):          # a NaN or inf mass, or an overflow
        raise ValueError("measure masses and their sum must be finite")
    if np.any(out < 0):
        raise ValueError("negative mass")
    if total <= 0:
        raise ValueError("measure has no mass")
    return out


def delta(space: FiniteMMS, point: int) -> np.ndarray:
    return as_measure(space, {point: 1.0})


def uniform_on(space: FiniteMMS, indices) -> np.ndarray:
    """Normalized restriction of the reference measure to a nonempty
    cell set."""
    idx = np.array([cell_id(space, i) for i in indices], dtype=int)
    if not idx.size:
        raise ValueError("uniform measure needs at least one cell")
    out = np.zeros(space.n)
    out[idx] = space.weight[idx]
    return out / out.sum()


def _problem(space: FiniteMMS, mu0, mu1):
    """The squared-W2 problem of two measures of equal total mass:
    ``(si, sm, ti, tm, d2)``, the cells above ``MASS_TOL`` of each
    normalized measure, their masses, and the squared distances from
    the source cells to the target cells."""
    mu0, mu1 = as_measure(space, mu0), as_measure(space, mu1)
    t0, t1 = mu0.sum(), mu1.sum()
    if abs(t0 - t1) > 1e-9 * max(t0, t1):
        raise ValueError("marginals must carry equal total mass")
    mu0, mu1 = mu0 / t0, mu1 / t1
    si, ti = np.flatnonzero(mu0 > MASS_TOL), np.flatnonzero(mu1 > MASS_TOL)
    return si, mu0[si], ti, mu1[ti], space.dist[np.ix_(si, ti)] ** 2


# === couplings ===

@dataclass(frozen=True)
class Coupling:
    """Sparse-support coupling: ``matrix[a, b]`` is the mass moved from
    cell ``source_idx[a]`` to cell ``target_idx[b]``."""

    source_idx: np.ndarray
    target_idx: np.ndarray
    matrix: np.ndarray

    def entries(self):
        """(source cell, target cell, mass) for masses above ``MASS_TOL``."""
        for a, i in enumerate(self.source_idx):
            for b, j in enumerate(self.target_idx):
                m = self.matrix[a, b]
                if m > MASS_TOL:
                    yield int(i), int(j), float(m)

    def row_marginal(self) -> np.ndarray:
        return self.matrix.sum(axis=1)

    def col_marginal(self) -> np.ndarray:
        return self.matrix.sum(axis=0)


@dataclass(frozen=True)
class TransportResult:
    coupling: Coupling
    cost: float            # squared 2-Wasserstein distance
    # HiGHS's equality duals, phi on the source support then psi on the
    # target support; None on a one-point support, where no LP runs
    duals: np.ndarray | None = None

    @property
    def w2(self) -> float:
        return math.sqrt(max(self.cost, 0.0))


def _repair_marginals(matrix, row, col):
    """Absorb solver residuals (at most ``MASS_TOL`` each) into the
    largest entry of the offending row/column; raise if they exceed
    ``MASS_TOL``."""
    m = matrix.copy()
    m[m < 0] = 0.0
    for _ in range(3):
        r = row - m.sum(axis=1)
        for a in np.flatnonzero(np.abs(r) > 0):
            m[a, int(np.argmax(m[a]))] += r[a]
        c = col - m.sum(axis=0)
        for b in np.flatnonzero(np.abs(c) > 0):
            m[int(np.argmax(m[:, b])), b] += c[b]
    worst = max(np.max(np.abs(row - m.sum(axis=1))),
                np.max(np.abs(col - m.sum(axis=0))))
    if worst > MASS_TOL:
        raise RuntimeError(f"marginal repair left defect {worst:g}")
    m[m < 0] = 0.0
    return m


def _marginal_constraints(sm, tm):
    """(A_eq, b_eq) fixing the row sums ``sm`` and the column sums ``tm``
    of the row-major flattened coupling.  A_eq is sparse (CSC): column
    a * n1 + b holds a one in row a and a one in row n0 + b."""
    from scipy.sparse import csc_array
    n0, n1 = len(sm), len(tm)
    k = np.arange(n0 * n1)
    rows = np.column_stack([k // n1, n0 + k % n1]).ravel()
    a_eq = csc_array((np.ones(2 * n0 * n1), rows,
                      np.arange(0, 2 * n0 * n1 + 1, 2)),
                     shape=(n0 + n1, n0 * n1))
    return a_eq, np.concatenate([sm, tm])


def solve_w2(space: FiniteMMS, mu0, mu1) -> TransportResult:
    """LP solve of the squared W2 problem on the marginal supports; solver
    residuals above ``MASS_TOL`` in a marginal raise.

    The last solve that ran HiGHS (both supports of at least 2 cells) is
    kept, one entry only, keyed by the exact bytes of the problem: the
    support cells, their masses and the squared distances, compared in
    full.  A second call on a byte-identical problem, such as the base
    solve of ``uniqueness_probe`` right after this one, returns the same
    result object without an LP; HiGHS is deterministic, so that object
    is the one a new solve would build.  The arrays of every result
    (``coupling.source_idx``, ``target_idx``, ``matrix`` and ``duals``)
    are read-only, since one result can reach several callers.
    """
    return _solve(_problem(space, mu0, mu1))


# (key, result) of the last LP solve, or None.  It is replaced by one
# assignment and read once per call, so a reader never sees a key with
# another key's result.
_LAST_SOLVE = None


def _solve(problem) -> TransportResult:
    """``solve_w2`` on a problem built by ``_problem``."""
    global _LAST_SOLVE
    si, sm, ti, tm, d2 = problem
    n0, n1 = len(si), len(ti)
    key = None
    duals = None
    if n0 == 1 or n1 == 1:
        sigma = np.outer(sm, tm) / sm.sum()
    else:
        key = tuple(a.tobytes() for a in problem)
        last = _LAST_SOLVE
        if last is not None and last[0] == key:
            return last[1]
        from scipy.optimize import linprog
        a_eq, b_eq = _marginal_constraints(sm, tm)
        res = linprog(d2.ravel(), A_eq=a_eq, b_eq=b_eq,
                      bounds=(0, None), method="highs")
        if not res.success:
            raise RuntimeError(f"transport LP failed: {res.message}")
        sigma = res.x.reshape(n0, n1)
        duals = res.eqlin.marginals
    sigma = _repair_marginals(sigma, sm, tm)
    for a in (si, ti, sigma, duals):
        if a is not None:
            a.flags.writeable = False
    result = TransportResult(coupling=Coupling(source_idx=si, target_idx=ti,
                                               matrix=sigma),
                             cost=float((sigma * d2).sum()), duals=duals)
    if key is not None:
        _LAST_SOLVE = (key, result)
    return result


def brute_force_w2(space: FiniteMMS, mu0, mu1) -> float:
    """Exact squared W2 as the minimum over all basic feasible couplings.

    Every vertex of the transport polytope is reachable by repeatedly
    picking a source/target pair and saturating one side with
    min(remaining row, remaining col); the search walks all such
    saturation orders with branch-and-bound and state dominance pruning.
    Supports are limited to 5x5.
    """
    si, sm, ti, tm, d2 = _problem(space, mu0, mu1)
    n0, n1 = len(si), len(ti)
    if n0 > BRUTE_SUPPORT_LIMIT or n1 > BRUTE_SUPPORT_LIMIT:
        raise ValueError("brute force supports at most 5x5 couplings")
    cost = d2.tolist()

    best = math.inf
    memo = {}
    stack = [(tuple(sm.tolist()), tuple(tm.tolist()), 0.0)]
    while stack:
        rr, cc, acc = stack.pop()
        if acc >= best:
            continue
        key = (tuple(round(v, 14) for v in rr), tuple(round(v, 14) for v in cc))
        known = memo.get(key)
        if known is not None and known <= acc + 1e-15:
            continue
        memo[key] = acc
        ar = [i for i in range(n0) if rr[i] > MASS_TOL]
        ac = [j for j in range(n1) if cc[j] > MASS_TOL]
        if not ar:
            best = min(best, acc)
            continue
        if len(ar) == 1:
            i = ar[0]
            best = min(best, acc + sum(cc[j] * cost[i][j] for j in ac))
            continue
        if len(ac) == 1:
            j = ac[0]
            best = min(best, acc + sum(rr[i] * cost[i][j] for i in ar))
            continue
        lb_r = sum(rr[i] * min(cost[i][j] for j in ac) for i in ar)
        lb_c = sum(cc[j] * min(cost[i][j] for i in ar) for j in ac)
        if acc + max(lb_r, lb_c) >= best:
            continue
        moves = sorted(((cost[i][j], i, j) for i in ar for j in ac),
                       reverse=True)
        for cij, i, j in moves:
            m = min(rr[i], cc[j])
            r2 = list(rr)
            c2 = list(cc)
            r2[i] = 0.0 if r2[i] - m < MASS_TOL else r2[i] - m
            c2[j] = 0.0 if c2[j] - m < MASS_TOL else c2[j] - m
            stack.append((tuple(r2), tuple(c2), acc + m * cij))
    return best


# === uniqueness ===

@dataclass(frozen=True)
class ProbeResult:
    unique: bool
    deviation: float
    base: TransportResult
    witness: Coupling | None = None
    certificate: str = "forest"      # "forest", "witness" or "search"


def _is_forest(tight: np.ndarray) -> bool:
    """True when the bipartite graph with biadjacency ``tight`` has no
    cycle: edges = nodes - components."""
    from scipy.sparse import csc_array
    from scipy.sparse.csgraph import connected_components
    n0, n1 = tight.shape
    rows, cols = np.nonzero(tight)
    graph = csc_array((np.ones(len(rows)), (rows, n0 + cols)),
                      shape=(n0 + n1, n0 + n1))
    ncomp, _ = connected_components(graph, directed=False)
    return len(rows) == n0 + n1 - ncomp


def uniqueness_probe(space: FiniteMMS, mu0, mu1, tol: float = 1e-8,
                     seed: int = 0, draws: int = 3) -> ProbeResult:
    """Decide whether the optimal coupling is unique, on the exact
    optimal face, from the duals of one LP solve.

    The problem is built once, by ``_problem``, and solved as
    ``solve_w2`` solves it; the result, read-only, is ``base``.
    ``solve_w2`` keeps its last LP solve, one entry keyed by the exact
    bytes of the problem (one-point supports run no LP and are not
    kept), so right after ``solve_w2`` on the same measures ``base`` is
    the very result that call returned and no base LP runs.  The probe
    takes the duals phi and psi from HiGHS's equality marginals.  An
    edge (i, j) is tight when its reduced cost c_ij - phi_i - psi_j is
    at most tau = ``TIGHT_REL`` * max c, and every edge the base
    coupling uses counts as tight.  Let gap = |base cost - (mu0.phi +
    mu1.psi)| and neg = the largest negative reduced cost (0 for
    feasible duals).  By complementary slackness
    every optimal coupling puts at most (gap + neg) / tau of its mass
    off the tight edges.

    - ``certificate="forest"``: the tight bipartite graph has no cycle,
      so at most one coupling with these marginals lives on it; the
      coupling is unique (up to that off-tight mass bound) and no further
      LP runs.  One-point supports count as forests.
    - ``certificate="witness"``: the graph has a cycle, and re-solving on
      the tight edges only, with ``draws`` seeded random objectives (both
      signs of each), found a coupling at the base cost within
      gap + neg + a rounding allowance that differs from the base
      coupling by more than ``tol`` in some entry.  ``unique`` is False.
    - ``certificate="search"``: the graph has a cycle but no draw found
      such a witness; ``unique`` is True on that search's evidence.

    ``deviation`` is the largest entrywise difference from the base
    coupling among the optimal couplings the draws found (0 for a
    forest).  ``tol`` must be a nonnegative number, ``seed`` no bool
    nor negative integer and ``draws`` between 1 and ``MAX_PROBE_DRAWS``.
    """
    require_seed(seed)
    if not tol >= 0.0:
        raise ValueError(f"tol must be a nonnegative number, not {tol}")
    if not 1 <= draws <= MAX_PROBE_DRAWS:
        raise ValueError(f"draws must be between 1 and {MAX_PROBE_DRAWS}, "
                         f"not {draws}")
    problem = _problem(space, mu0, mu1)
    base = _solve(problem)
    if base.duals is None:
        return ProbeResult(unique=True, deviation=0.0, base=base)
    si, sm, ti, tm, d2 = problem
    n0, n1 = len(si), len(ti)
    a_eq, b_eq = _marginal_constraints(sm, tm)
    phi, psi = base.duals[:n0], base.duals[n0:]
    reduced = d2 - phi[:, None] - psi[None, :]
    tight = ((reduced <= TIGHT_REL * d2.max())
             | (base.coupling.matrix > MASS_TOL))
    if _is_forest(tight):
        return ProbeResult(unique=True, deviation=0.0, base=base)

    gap = abs(base.cost - b_eq @ base.duals)
    neg = max(0.0, -float(reduced.min()))
    # the two costs compared are sums of n0 * n1 nonnegative terms, each
    # off by at most n0 * n1 * eps times its value
    slack = gap + neg + 2 * n0 * n1 * np.finfo(float).eps * base.cost
    from scipy.optimize import linprog
    cols = np.flatnonzero(tight)
    a_face = a_eq[:, cols]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(draws):
        q = rng.standard_normal(n0 * n1)[cols]
        for sgn in (1.0, -1.0):
            res = linprog(sgn * q, A_eq=a_face, b_eq=b_eq, bounds=(0, None),
                          method="highs")
            if not res.success:
                continue
            other = np.zeros(n0 * n1)
            other[cols] = res.x
            other = _repair_marginals(other.reshape(n0, n1), sm, tm)
            if abs(float((other * d2).sum()) - base.cost) > slack:
                continue
            dev = float(np.max(np.abs(other - base.coupling.matrix)))
            worst = max(worst, dev)
            if dev > tol:
                witness = Coupling(source_idx=si, target_idx=ti, matrix=other)
                return ProbeResult(unique=False, deviation=dev, base=base,
                                   witness=witness, certificate="witness")
    return ProbeResult(unique=True, deviation=worst, base=base,
                       certificate="search")


# === geodesic plans ===

@dataclass(frozen=True)
class GeodesicPlan:
    """Weighted family of discrete geodesics; masses sum to one.

    The atoms are packed once, into read-only arrays: atom a has the
    nodes ``nodes[starts[a]:starts[a + 1]]`` at ``times`` over the same
    range, the length ``lengths[a]`` and the mass ``masses[a]``.
    """

    atoms: tuple = field(default_factory=tuple)
    nodes: np.ndarray = field(init=False, compare=False, repr=False)
    times: np.ndarray = field(init=False, compare=False, repr=False)
    starts: np.ndarray = field(init=False, compare=False, repr=False)
    lengths: np.ndarray = field(init=False, compare=False, repr=False)
    masses: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        total = sum(m for _, m in self.atoms)
        if self.atoms and abs(total - 1.0) > 1e-9:
            raise ValueError(f"plan mass {total} is not 1")
        gs = [g for g, _ in self.atoms]
        starts = np.cumsum([0] + [len(g.nodes) for g in gs], dtype=np.intp)
        for name, values in (
                ("nodes", np.fromiter(chain.from_iterable(g.nodes for g in gs),
                                      np.intp, starts[-1])),
                ("times", np.fromiter(chain.from_iterable(g.times for g in gs),
                                      float, starts[-1])),
                ("starts", starts),
                ("lengths", np.array([g.length for g in gs], dtype=float)),
                ("masses", np.array([m for _, m in self.atoms], dtype=float))):
            values.flags.writeable = False
            object.__setattr__(self, name, values)

    def nodes_at(self, t) -> np.ndarray:
        """The node of every atom at time t, in plan order: shape (A,) for
        a number t, (T, A) for a 1-D array of T times (in any order,
        repeats allowed).

        Each atom's node follows the rule of ``evaluate``: the first
        minimum of |times - t|, so a tie goes to the smaller time.  One
        ``searchsorted`` on the keys atom + 1j * time, which sort by
        (atom, time), finds the first node time at or after t in every
        atom; the node before it wins when its gap is no larger, after a
        walk left through any run of equal rounded gaps (node times a few
        ulps apart).  A time outside [0, 1] raises; a plan without atoms
        gives an empty array for any t.
        """
        ts = np.asarray(t, dtype=float)
        if ts.ndim > 1:
            raise ValueError("t must be a number or a 1-D array of times")
        if not self.atoms:
            return np.empty(ts.shape + (0,), dtype=np.intp)
        if not (ts.min(initial=0.0) >= 0.0 and ts.max(initial=1.0) <= 1.0):
            raise ValueError("t must lie in [0, 1]")
        ts = ts.reshape(-1, 1)
        first = self.starts[:-1]
        key = np.empty(len(self.times), dtype=complex)
        key.real = np.repeat(np.arange(len(first)), np.diff(self.starts))
        key.imag = self.times
        query = np.empty((len(ts), len(first)), dtype=complex)
        query.real = np.arange(len(first))
        query.imag = ts
        # times start at 0 and end at 1, so ``pick`` stays inside its atom
        pick = np.searchsorted(key, query).ravel()
        tq = np.broadcast_to(ts, query.shape).ravel()
        lo = np.broadcast_to(first, query.shape).ravel()
        # ``left`` holds the picks that move one node left: at first those
        # whose node before t is no farther, then those whose rounded gap
        # equals the one of the node after them
        left = np.flatnonzero(pick > lo)
        p = pick[left]
        left = left[tq[left] - self.times[p - 1] <= self.times[p] - tq[left]]
        while left.size:
            pick[left] -= 1
            left = left[pick[left] > lo[left]]
            p = pick[left]
            left = left[tq[left] - self.times[p - 1] == tq[left] - self.times[p]]
        return self.nodes[pick].reshape(np.shape(t) + (len(first),))


def lift_to_geodesic_plan(space: FiniteMMS, coupling: Coupling) -> GeodesicPlan:
    """One geodesic per positive coupling entry, from one
    ``geodesics_between`` call over all the entries, with the masses
    normalized to sum to one."""
    entries = list(coupling.entries())
    chains = geodesics_between(space, [(i, j) for i, j, _ in entries])
    total = sum(m for _, _, m in entries)
    return GeodesicPlan(atoms=tuple(
        (g, m / total) for g, (_, _, m) in zip(chains, entries)))


def plan_cost(plan: GeodesicPlan) -> float:
    """Transport cost of a plan: sum of mass times squared length."""
    return sum(m * g.length**2 for g, m in plan.atoms)


def plan_marginals(space: FiniteMMS, plan: GeodesicPlan):
    """Mass vectors of the first and last nodes, summed in plan order (an
    empty plan's ``bincount`` is integer zeros, hence the cast)."""
    return tuple(np.bincount(plan.nodes[ends], plan.masses, minlength=space.n)
                 .astype(float, copy=False)
                 for ends in (plan.starts[:-1], plan.starts[1:] - 1))


def pushforward_at(space: FiniteMMS, plan: GeodesicPlan, t: float) -> np.ndarray:
    """Mass vector of the time-t evaluation of the plan, summed in plan
    order."""
    return (np.bincount(plan.nodes_at(t), plan.masses, minlength=space.n)
            .astype(float, copy=False))


# === fixed-set symmetrization competitor ===

def _apply_perm(perm: np.ndarray, g: DiscreteGeodesic) -> DiscreteGeodesic:
    return DiscreteGeodesic(nodes=tuple(int(perm[v]) for v in g.nodes),
                            times=g.times, length=g.length)


def symmetrized_competitor(space: FiniteMMS, perm, plan: GeodesicPlan,
                           x=None, targets=None,
                           iso_tol: float = DEFAULT_ISO_TOL) -> GeodesicPlan:
    """Swap the two target branches of a plan through an isometry.

    The permutation may distort distances by ``iso_tol``, a rounding
    scale by default.  The plan must start on its fixed set (cells moved
    by at most one grid pitch) and end either in ``{x, perm[x]}`` or, when
    ``targets`` is given, in that cell set and its disjoint image.  Atoms
    landing on the first branch are pushed through the permutation, atoms
    landing on the image branch through its inverse; marginals and cost
    survive because the sources are fixed and the map is an isometry.
    A NaN or negative ``iso_tol`` or an outside cell id raises ``ValueError``.
    """
    if not iso_tol >= 0:
        raise ValueError(f"iso_tol must be a nonnegative number, got {iso_tol}")
    iso = isometry_from_perm(space, perm)
    perm, inv = iso.perm, invert(iso.perm)
    fix_tol = space.pitch()
    if iso.distortion > iso_tol:
        raise ValueError(f"permutation distorts distances by {iso.distortion:g}")

    if targets is None:
        if x is None:
            raise ValueError("need either x or targets")
        x = cell_id(space, x)
        if perm[x] == x:
            raise ValueError("x must move under the isometry")
        branch1 = {x}
    else:
        branch1 = {cell_id(space, v) for v in targets}
    branch2 = {int(perm[v]) for v in branch1}
    if branch1 & branch2:
        raise ValueError("target branch meets its image")

    moved = space.dist[np.arange(space.n), perm]
    atoms = []
    for g, m in plan.atoms:
        if moved[g.start] > fix_tol:
            raise ValueError(f"plan source {g.start} is not fixed")
        if g.end in branch1:
            atoms.append((_apply_perm(perm, g), m))
        elif g.end in branch2:
            atoms.append((_apply_perm(inv, g), m))
        else:
            raise ValueError(f"plan target {g.end} is outside both branches")
    return GeodesicPlan(atoms=tuple(atoms))


@dataclass(frozen=True)
class CompetitorReport:
    marginal_defect: float
    cost_defect: float
    plan_difference: float
    marginals_equal: bool
    cost_equal: bool
    distinct: bool

    @property
    def ok(self) -> bool:
        return self.marginals_equal and self.cost_equal and self.distinct


def _atom_table(plan: GeodesicPlan) -> dict:
    table = {}
    for g, m in plan.atoms:
        key = (g.nodes, tuple(round(t, 12) for t in g.times))
        table[key] = table.get(key, 0.0) + m
    return table


def verify_competitor(space: FiniteMMS, plan: GeodesicPlan,
                      competitor: GeodesicPlan,
                      tol: float = 1e-9) -> CompetitorReport:
    """Certify that two plans share marginals and cost yet differ as
    measures on geodesics."""
    e0a, e1a = plan_marginals(space, plan)
    e0b, e1b = plan_marginals(space, competitor)
    marg = max(float(np.max(np.abs(e0a - e0b))),
               float(np.max(np.abs(e1a - e1b))))
    dcost = abs(plan_cost(plan) - plan_cost(competitor))
    ta, tb = _atom_table(plan), _atom_table(competitor)
    diff = 0.0
    for key in set(ta) | set(tb):
        diff += abs(ta.get(key, 0.0) - tb.get(key, 0.0))
    return CompetitorReport(
        marginal_defect=marg,
        cost_defect=dcost,
        plan_difference=diff,
        marginals_equal=marg <= tol,
        cost_equal=dcost <= max(tol, tol * max(1.0, plan_cost(plan))),
        distinct=diff > tol,
    )
