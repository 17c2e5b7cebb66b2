"""Finite metric measure spaces and discrete constant-speed geodesics.

A space is a finite set of cells with a symmetric distance matrix and a
positive weight per cell.  Geodesics are node chains with increasing time
stamps in [0, 1]; they approximate continuum geodesics on grid-like spaces
and satisfy a constant-speed defect bound relative to the grid pitch.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import dataclass, field, replace

import numpy as np

# scipy loads inside the functions that use it, so that a process which
# never calls them starts without it.

TRIANGLE_TOL = 1e-9

# Validator checks every triple up to this size; above it, a graph witness
# or, where the witness fails, a sample of triples.
FULL_TRIANGLE_LIMIT = 300

# The graph witness joins the cells within this many grid pitches: at 1.5 a
# necklace's bead cells lack the diagonal steps the witness needs.
WITNESS_PITCHES = 2

# Sampled triples are drawn and checked this many at a time, and the graph
# witness gathers this many paths at a time, so either check needs constant
# memory beyond the matrix (and the witness's edge list).
TRIANGLE_BLOCK = 16_384

# Where the graph witness fails, the validator samples at most this many
# triples (and at most 4 n^2).
MAX_SAMPLED_TRIPLES = 20_000_000

# Explicit files spell the matrix this many entries at a time.
SAVE_BLOCK = 1 << 16

# Geodesics are lifted on the graph of the cells within this many pitches.
EDGE_FACTOR = 1.5


def _as_float_array(a, name, ndim):
    arr = np.asarray(a, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    # NaN or inf reaches min or max; no elementwise temporary
    if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class FiniteMMS:
    """A finite metric measure space.

    Attributes
    ----------
    dist : (n, n) ndarray
        Exactly symmetric distances with a zero diagonal, n >= 1.
    weight : (n,) ndarray
        Strictly positive cell masses.
    coords : (n, k) ndarray or None
        Optional ambient coordinates, used by generators and serialization.
    meta : dict
        Provenance tag: generator name, parameters, grid pitch.

    The three arrays must be finite, and ``dist`` exactly symmetric
    (``-0.0 == 0.0``) with a zero diagonal, checked in row blocks with no
    n^2 temporary; anything else raises ``ValueError`` here, naming the
    first offending entry, so no later stage has to allow for it.
    """

    dist: np.ndarray
    weight: np.ndarray
    coords: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        dist = _as_float_array(self.dist, "dist", 2)
        weight = _as_float_array(self.weight, "weight", 1)
        if dist.shape[0] != dist.shape[1]:
            raise ValueError("dist must be square")
        if dist.shape[0] == 0:
            raise ValueError("a space needs at least one cell")
        if weight.shape[0] != dist.shape[0]:
            raise ValueError("weight length must match dist")
        n = dist.shape[0]
        step = max(1, TRIANGLE_BLOCK // n)
        for s in range(0, n, step):
            upper, lower = dist[s:s + step, s:], dist[s:, s:s + step].T
            if not np.array_equal(upper, lower):
                i, j = np.argwhere(upper != lower)[0] + s
                raise ValueError(f"dist must be symmetric: dist[{i}, {j}] = "
                                 f"{dist[i, j]}, dist[{j}, {i}] = {dist[j, i]}")
        if dist.diagonal().any():
            i = np.flatnonzero(dist.diagonal())[0]
            raise ValueError(f"dist must have a zero diagonal: "
                             f"dist[{i}, {i}] = {dist[i, i]}")
        if np.any(weight <= 0):
            raise ValueError("weights must be strictly positive")
        coords = self.coords
        if coords is not None:
            coords = _as_float_array(coords, "coords", 2)
            if coords.shape[0] != dist.shape[0]:
                raise ValueError("coords length must match dist")
            coords.setflags(write=False)
        dist.setflags(write=False)
        weight.setflags(write=False)
        object.__setattr__(self, "dist", dist)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "coords", coords)

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.weight.sum())

    @property
    def diameter(self) -> float:
        return float(self.dist.max())

    def pitch(self) -> float:
        """Grid pitch recorded by the generator, or the largest
        nearest-neighbour distance as a fallback."""
        p = self.meta.get("pitch")
        if p is not None:
            return float(p)
        n = self.n
        if n < 2:
            return 0.0
        # row blocks with their diagonal masked: no n^2 temporary
        step = max(1, TRIANGLE_BLOCK // n)
        nearest = np.empty(n)
        for s in range(0, n, step):
            block = self.dist[s:s + step].copy()
            block[np.arange(len(block)), np.arange(s, s + len(block))] = np.inf
            nearest[s:s + step] = block.min(axis=1)
        return float(nearest.max())


@dataclass(frozen=True)
class ValidationReport:
    """Defects of the triangle inequality.  ``certificate`` names what
    covers it: "exhaustive" (every triple checked), "graph"
    (``_graph_witness`` bounds every triple) or "sample" (a seeded
    sample, which certifies nothing).  ``triangle_defect_bound`` is the
    worst defect over all n^3 triples for "exhaustive", the witness's
    proven bound for "graph" and ``inf`` for "sample"."""

    n: int
    triangle_violations: tuple
    worst_triangle_defect: float
    triples_checked: int
    certificate: str = "sample"
    triangle_defect_bound: float = math.inf

    @property
    def ok(self) -> bool:
        return self.worst_triangle_defect <= TRIANGLE_TOL


def validate_space(space: FiniteMMS, seed: int = 0) -> ValidationReport:
    """Report the triangle inequality's defects; never raises on violations.

    The defect of a triple (i, j, k) is d(i,j) - d(i,k) - d(k,j).  Up to
    ``FULL_TRIANGLE_LIMIT`` points every triple is checked, by the
    min-plus product min_k (d(i,k) + d(k,j)) with those very sums.  As d
    is exactly symmetric and a rounded sum commutes, the product is
    symmetric: only its upper triangle is computed, row i as one
    reduction over k of an n x (n - i) block of sums, and then mirrored.
    That needs about 2 n^2 floats beyond the matrix (the product, then
    the defect, and one block).  Above the limit, ``_graph_witness``
    bounds the defect of every triple in O(n^2 deg) work; the report
    then has ``certificate`` "graph", no violations, the worst defect
    among the triples the witness evaluated, and n |E(H)| of them as
    ``triples_checked``.

    Where the witness fails, a seeded random sample of
    ``min(MAX_SAMPLED_TRIPLES, 4 n^2)`` triples is checked.  It is drawn and
    checked in blocks of ``TRIANGLE_BLOCK`` triples from one generator,
    so it needs no memory beyond the matrix and a constant, and the
    report is the same as if the whole sample were drawn at once.  Up to
    32 violations, the triples whose defect exceeds ``TRIANGLE_TOL`` (the
    threshold of ``ok``), are listed in draw order.  ``seed`` drives only
    the sample, but a bool or negative one raises ``ValueError``
    whichever check runs.
    """
    require_seed(seed)
    d = space.dist
    n = space.n
    worst = 0.0
    violations = []
    checked = 0
    exhaustive = n <= FULL_TRIANGLE_LIMIT
    witness = None if exhaustive else _graph_witness(space)
    if witness is not None:
        certificate = "graph"
        worst, checked, bound = witness
    elif exhaustive:
        certificate = "exhaustive"
        if n >= 3:
            # defect[i, j] = d(i,j) - min_k (d(i,k) + d(k,j)), a symmetric
            # product: the upper part of row i, then its mirror
            best = np.empty((n, n))
            for i in range(n):
                row = best[i, i:]
                np.minimum.reduce(d[i, :, None] + d[:, i:], axis=0, out=row)
                best[i:, i] = row
            checked = n ** 3
            defect = d - best
            worst = float(defect.max())
            if worst > TRIANGLE_TOL:
                bad = np.argwhere(defect > TRIANGLE_TOL)
                for i, j in bad[:32]:
                    k = int(np.argmin(d[i, :] + d[:, j]))
                    violations.append((int(i), int(j), k, float(defect[i, j])))
        bound = max(worst, 0.0)
    else:
        certificate, bound = "sample", math.inf
        rng = np.random.default_rng(seed)
        flat = d.ravel()
        checked = min(MAX_SAMPLED_TRIPLES, 4 * n * n)
        worst = -np.inf
        for start in range(0, checked, TRIANGLE_BLOCK):
            c = min(TRIANGLE_BLOCK, checked - start)
            i, j, k = rng.integers(0, n, size=(c, 3)).T
            row = i * n
            defect = flat.take(row + j) - flat.take(row + k) - flat.take(k * n + j)
            worst = max(worst, float(defect.max()))
            if len(violations) < 32:
                for b in np.flatnonzero(defect > TRIANGLE_TOL)[:32 - len(violations)]:
                    violations.append((int(i[b]), int(j[b]), int(k[b]), float(defect[b])))
    return ValidationReport(
        n=n,
        triangle_violations=tuple(violations),
        worst_triangle_defect=max(worst, 0.0),
        triples_checked=checked,
        certificate=certificate,
        triangle_defect_bound=bound,
    )


def _graph_witness(space: FiniteMMS):
    """Bound the triangle defect of all n^3 triples in O(n^2 deg) work.

    H is the directed graph of the edges (k -> j) with
    0 < D(k,j) <= ``WITNESS_PITCHES`` pitches, weighted by D(k,j).  With
    m_ij = min over the edges (k -> j) of D(i,k) + D(k,j), the witness
    computes, in blocks of cells j,

        d+ = max(0, max_ij D(i,j) - m_ij)    (defects of the triples it sees)
        d- = max(0, max_{j != i} m_ij - D(i,j))    (slack of the best
                                                    predecessor of j)

    and needs every edge weight to exceed d- + rho.  Then, for i != j,
    the best predecessor k of j has D(i,k) <= D(i,j) + d- + rho - D(k,j)
    < D(i,j), so the chain of best predecessors from j strictly lowers
    D(i, .), repeats no cell and reaches i within n - 1 hops; summing
    along it gives d_H(i,j) <= D(i,j) + (n-1)(d- + rho).  Along a
    shortest H-path from i to j (at most n - 1 hops, each closing a
    triple the witness saw), D(i,j) <= d_H(i,j) + (n-1)(d+ + rho).  As
    d_H obeys the triangle inequality and D has a zero diagonal, every
    defect is at most

        (n-1)(d+ + 2 d- + 3 rho).

    rho covers rounding: a computed slack is a sum rounded once and a
    difference rounded once, so with M = max |D| and unit roundoff
    u = eps/2 it is off from the exact one by at most
    2uM + u(3M + 2uM) < 3 eps M = rho.  The bound's own few roundings,
    on nonnegative terms, are covered by scaling it by 1 + 4 eps.

    Returns (d+, n |E(H)|, bound) when the bound is at most
    ``TRIANGLE_TOL``, else None.  It stops at the first block that
    already breaks the bound, so a failed attempt costs one block, and
    returns None at once when the space has no usable pitch or a cell
    with no in-edge.  H comes from ``_near_graph``: as D is symmetric,
    row j of it lists the edges into j, and column j of m is the minimum
    over those edges (k -> j) of the whole rows D(k, .) + D(j, k), the
    same sums as D(i,k) + D(k,j).  The cells j are taken by in-degree g,
    about ``TRIANGLE_BLOCK`` // (g n) of them at a time; a block gathers
    the g rows of each of its cells and reduces them at once.  As d+ and
    d- are running maxima, the order of the blocks changes neither them
    nor whether the bound breaks.  A block holds about ``TRIANGLE_BLOCK``
    paths (g n, if more, for one cell), so the witness needs memory for
    the edge list and one block beyond the matrix.
    """
    d = space.dist
    n = space.n
    radius = WITNESS_PITCHES * space.pitch()
    if not radius > 0:
        return None
    indptr, tails, weights = _near_graph(space, radius)
    degree = np.diff(indptr)
    if not degree.all():
        return None
    eps = np.finfo(float).eps
    rho = 3 * eps * max(float(d.max()), -float(d.min()))
    w_min = float(weights.min())
    plus = minus = bound = 0.0
    # row b of defect is column j = block[b] of D - m
    for g in np.unique(degree):
        cells = np.flatnonzero(degree == g)
        step = max(1, TRIANGLE_BLOCK // (g * n))
        for s in range(0, len(cells), step):
            block = cells[s:s + step]
            edges = (indptr[block][:, None] + np.arange(g)).ravel()
            paths = d.take(tails[edges], axis=0).reshape(len(block), g, n)
            paths += weights[edges].reshape(len(block), g, 1)
            defect = d[block] - np.minimum.reduce(paths, axis=1)
            plus = max(plus, float(defect.max()))
            defect[np.arange(len(block)), block] = np.inf
            minus = max(minus, -float(defect.min()))
            bound = (n - 1) * (plus + 2 * minus + 3 * rho) * (1 + 4 * eps)
            if bound > TRIANGLE_TOL or not w_min > minus + rho:
                return None
    return plus, n * len(tails), bound


def _near_graph(space: FiniteMMS, radius: float):
    """The cells j with 0 < D(i, j) <= ``radius`` of each cell i, as CSR
    arrays ``(indptr, indices, data)`` (j ascending, data D(i, j)), read
    from ``dist`` in row blocks of about ``TRIANGLE_BLOCK`` entries."""
    d, n = space.dist, space.n
    step = max(1, TRIANGLE_BLOCK // n)
    flats, data = [], []
    for s in range(0, n, step):
        block = d[s:s + step]
        mask = (block > 0) & (block <= radius)
        flat = np.flatnonzero(mask)
        flats.append(flat + s * n)
        data.append(block.ravel().take(flat))
    rows, indices = np.divmod(np.concatenate(flats), n)
    indptr = np.searchsorted(rows, np.arange(n + 1))
    return indptr, indices, np.concatenate(data)


def scale(space: FiniteMMS, factor: float) -> FiniteMMS:
    """Rescale the metric: distances are divided by ``factor``; weights
    are untouched.  Blowing up (factor > 1) zooms in.  The result drops
    the recipe ``meta["params"]``, so it has no necklace layout.  A NaN,
    infinite or nonpositive ``factor`` raises ``ValueError``."""
    require_positive("factor", factor)
    meta = dict(space.meta)
    meta.pop("params", None)
    meta["scaled_by"] = float(meta.get("scaled_by", 1.0) * factor)
    if "pitch" in meta:
        meta["pitch"] = float(meta["pitch"]) / factor
    return replace(space, dist=space.dist / factor, meta=meta)


def cell_id(space: FiniteMMS, i) -> int:
    """``i`` as a cell index of the space: an integer, or a float with no
    fractional part (as the generators take 12.0 cells).  A bool, a
    string, a fractional number or an id outside ``[0, n)`` raises rather
    than being truncated or wrapped around."""
    if isinstance(i, (float, np.floating)) and float(i).is_integer():
        i = int(i)
    if isinstance(i, (bool, np.bool_)) or not isinstance(i, numbers.Integral):
        raise ValueError(f"cell id {i!r} is not a whole number")
    i = int(i)
    if not 0 <= i < space.n:
        raise ValueError(f"cell id {i} outside [0, {space.n})")
    return i


def require_positive(name: str, value) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a finite
    positive number."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")


def require_nonnegative(name: str, value) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a finite
    nonnegative number."""
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")


def require_seed(seed) -> None:
    """Raise ``ValueError`` naming ``seed`` if it is a bool or a negative
    integer, before any work that it would seed.  Anything else goes to
    ``np.random.default_rng`` as it is (a SeedSequence, say)."""
    if (isinstance(seed, (bool, np.bool_))
            or isinstance(seed, numbers.Integral) and seed < 0):
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")


def ball_indices(space: FiniteMMS, center: int, radius: float) -> np.ndarray:
    """The cells of the closed ball of ``radius`` around ``center``."""
    return np.flatnonzero(space.dist[cell_id(space, center)] <= radius)


def ball(space: FiniteMMS, center: int, radius: float) -> FiniteMMS:
    """Restrict the space to the closed metric ball around ``center``.

    The returned space keeps the original indices in ``meta['subset']``,
    drops the recipe ``meta["params"]`` (so it has no necklace layout),
    and raises on an empty ball (of negative radius).
    """
    idx = ball_indices(space, center, radius)
    if idx.size == 0:
        raise ValueError("empty ball")
    meta = dict(space.meta)
    meta.pop("params", None)
    meta["subset"] = [int(i) for i in idx]
    meta["ball"] = {"center": int(center), "radius": float(radius)}
    return FiniteMMS(
        dist=space.dist[np.ix_(idx, idx)].copy(),
        weight=space.weight[idx].copy(),
        coords=None if space.coords is None else space.coords[idx].copy(),
        meta=meta,
    )


@dataclass(frozen=True)
class DiscreteGeodesic:
    """A constant-speed node chain.

    ``times`` are finite and strictly increasing with times[0] = 0 and
    times[-1] = 1; ``length`` is the finite, nonnegative distance between
    the endpoint cells; anything else raises ``ValueError``.  Evaluation uses
    the nearest-time rule with ties resolved toward the smaller time.
    """

    nodes: tuple
    times: tuple
    length: float

    def __post_init__(self):
        nodes = tuple(map(int, self.nodes))
        times = tuple(map(float, self.times))
        if len(nodes) != len(times):
            raise ValueError("nodes and times must have equal length")
        if len(nodes) < 2:
            raise ValueError("a geodesic needs at least two nodes")
        if abs(times[0]) > 1e-12 or abs(times[-1] - 1.0) > 1e-12:
            raise ValueError("times must start at 0 and end at 1")
        # a NaN fails every comparison, so this also rejects NaN times
        if not all(map(operator.lt, times, times[1:])):
            raise ValueError("times must be finite and strictly increasing")
        require_nonnegative("length", self.length)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "times", (0.0,) + times[1:-1] + (1.0,))

    @property
    def start(self) -> int:
        return self.nodes[0]

    @property
    def end(self) -> int:
        return self.nodes[-1]


def evaluate(g: DiscreteGeodesic, t: float) -> int:
    """Node whose time stamp is nearest to t; ties go to the smaller time."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    times = np.asarray(g.times)
    return int(g.nodes[int(np.argmin(np.abs(times - t)))])


def constant_speed_defect(space: FiniteMMS, g: DiscreteGeodesic) -> float:
    """max over node pairs of | d(a, b) - (t_b - t_a) * length |.

    Rows are compared in blocks of about ``TRIANGLE_BLOCK`` entries, so a
    long chain needs no (nodes x nodes) temporaries.  Each block gathers
    its rows of ``dist`` and then the chain's columns with two ``take``
    calls, faster than one ``np.ix_`` gather, and is reduced in place.
    """
    idx = np.asarray(g.nodes)
    tt = np.asarray(g.times)
    step = max(1, TRIANGLE_BLOCK // len(idx))
    worst = []
    for s in range(0, len(idx), step):
        block = space.dist.take(idx[s:s + step], axis=0).take(idx, axis=1)
        block -= np.abs(tt[s:s + step, None] - tt[None, :]) * g.length
        worst.append(np.abs(block, out=block).max())
    return float(np.max(worst))


def geodesic_tolerance(space: FiniteMMS) -> float:
    """How far a lifted chain may miss ``dist`` and constant speed: two
    grid pitches."""
    return 2.0 * space.pitch()


class ShortestChains:
    """Shortest node chains through the cells within ``EDGE_FACTOR``
    pitches of each other, from ``_near_graph``.

    The graph and its edge list are built once; ``between`` then needs
    only the Dijkstra rows of the two endpoints, which callers compute
    for many endpoints in one ``dijkstra(indices=...)`` call.
    """

    def __init__(self, space: FiniteMMS):
        from scipy.sparse import csr_matrix
        pitch = space.pitch()
        if pitch <= 0:
            raise ValueError("space has no usable pitch")
        self.space = space
        indptr, cols, wts = _near_graph(space, EDGE_FACTOR * pitch)
        self.graph = csr_matrix((wts, cols, indptr), shape=space.dist.shape)
        self.geodesic_tol = geodesic_tolerance(space)
        # edge list in CSR order: rows ascending, columns ascending per row
        self._rows = np.repeat(np.arange(space.n), np.diff(indptr))
        self._cols = self.graph.indices
        self._wts = self.graph.data

    def distances(self, sources) -> np.ndarray:
        """Dijkstra rows, one per source, from one call."""
        from scipy.sparse.csgraph import dijkstra
        return dijkstra(self.graph, directed=False, indices=sources)

    def between(self, a: int, b: int, da: np.ndarray, db: np.ndarray,
                budget: int = 1) -> list:
        """Up to ``budget`` shortest chains from a to b (a != b), given the
        Dijkstra rows ``da`` of a and ``db`` of b."""
        space, tol = self.space, self.geodesic_tol
        total = da[b]
        if not np.isfinite(total):
            raise ValueError("endpoints are not connected in the neighbor graph")
        if abs(total - space.dist[a, b]) > tol:
            raise ValueError(
                "neighbor-graph shortest path deviates from dist "
                f"({total:.6g} vs {space.dist[a, b]:.6g})"
            )
        slack = 1e-9 * max(total, 1.0)
        # DAG of tight edges: u -> v on a shortest path iff
        # da[u] + w + db[v] == total; da[v] > da[u] keeps the walk
        # monotone, so ties make no cycles
        rows, cols = self._rows, self._cols
        tight = ((da[rows] + self._wts + db[cols] <= total + slack)
                 & (da[cols] > da[rows]))
        heads = rows[tight]
        succ = cols[tight].tolist()
        ptr = np.searchsorted(heads, np.arange(space.n + 1)).tolist()
        chains = _walk(succ, ptr, a, b, budget)
        out = []
        length = float(space.dist[a, b])
        for chain in chains:
            tt = da[np.asarray(chain)] / total
            g = DiscreteGeodesic(nodes=tuple(chain), times=tuple(tt), length=length)
            defect = constant_speed_defect(space, g)
            if defect > tol:
                raise ValueError(f"constant-speed defect {defect:.3g} exceeds tolerance")
            out.append(g)
        return out


def _walk(succ: list, ptr: list, a: int, b: int, budget: int) -> list:
    """Depth-first walk of a DAG from a to b with an explicit stack; the
    successors of u are ``succ[ptr[u]:ptr[u + 1]]``, tried in that order.
    Returns the first ``budget`` chains reaching b, in the order found."""
    chains = []
    path = [a]
    stack = [iter(succ[ptr[a]:ptr[a + 1]])]
    while stack and len(chains) < budget:
        v = next(stack[-1], None)
        if v is None:
            stack.pop()
            path.pop()
        elif v == b:
            chains.append(path + [v])
        else:
            path.append(v)
            stack.append(iter(succ[ptr[v]:ptr[v + 1]]))
    return chains


def trivial_geodesic(a: int) -> DiscreteGeodesic:
    """The two-node chain that stays at a."""
    return DiscreteGeodesic(nodes=(a, a), times=(0.0, 1.0), length=0.0)


def geodesics_between(space: FiniteMMS, a: int, b: int, budget: int = 1) -> list:
    """Shortest node chains from a to b through the neighbor graph.

    Returns up to ``budget`` distinct shortest chains as DiscreteGeodesics
    with time stamps proportional to accumulated graph length.  Every chain
    is checked against the constant-speed invariant and against
    ``dist[a, b]`` (within ``geodesic_tolerance``); a mismatch means the
    space's metric is not the path metric of its own neighbor graph.
    """
    if a == b:
        return [trivial_geodesic(a)]
    sc = ShortestChains(space)
    da, db = sc.distances([a, b])
    return sc.between(a, b, da, db, budget=budget)


# === serialization ===

DIST_MODES = ("explicit", "recipe")


def save_space(space: FiniteMMS, path: str, dist_mode: str = "explicit") -> None:
    """Write a space as JSON in one of the ``DIST_MODES``: "explicit"
    (matrix, weights, points and meta; n^2 in size) or "recipe" (only the
    ``meta["generator"]`` kind and ``meta["params"]``, from which
    ``load_space`` rebuilds the space bit for bit).  ``scale``, ``ball``
    and hand-built spaces carry no recipe, and a recipe save reruns the
    generator; either a missing recipe or a space that differs from what
    it generates (say, after ``dataclasses.replace``) raises ``ValueError``.
    """
    if dist_mode == "recipe":
        if "params" not in space.meta:
            raise ValueError("space has no recipe: hand-built or derived")
        from mmslab.generators import generate  # generators imports core
        fresh = generate(space.meta["generator"], space.meta["params"])
        if not (np.array_equal(fresh.dist, space.dist)
                and np.array_equal(fresh.weight, space.weight)
                and np.array_equal(fresh.coords, space.coords)):
            raise ValueError("space differs from what its recipe generates")
        doc = {"recipe": {"kind": space.meta["generator"],
                          "params": _jsonable(space.meta["params"])}}
    elif dist_mode == "explicit":
        points = []
        for i in range(space.n):
            rec = {"id": i}
            if space.coords is not None:
                rec["coords"] = [float(c) for c in space.coords[i]]
            points.append(rec)
        doc = {
            "points": points,
            "weights": [float(w) for w in space.weight],
            "meta": _jsonable(space.meta),
        }
    else:
        raise ValueError(f"unknown dist_mode {dist_mode!r}")
    with open(path, "w") as fh:
        if dist_mode == "explicit":
            # the bytes of json.dump(indent=1, sort_keys=True) with "dist"
            # in it, which sorts first: the matrix streams one row at a
            # time, not through the pure-Python indenting encoder
            fh.write('{\n "dist": [\n')
            sep = ""
            for body in _row_bodies(space.dist):
                fh.write(f"{sep}  [\n   {body}\n  ]")
                sep = ",\n"
            fh.write("\n ],\n" + json.dumps(doc, indent=1, sort_keys=True)[2:])
        else:
            json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _row_bodies(dist: np.ndarray):
    """The entries of each row of ``dist`` as json's C encoder spells
    them, joined by the indent of an explicit file.  Rows go in blocks of
    about ``SAVE_BLOCK`` entries, and the encoder spells each distinct
    bit pattern of a block once (so -0.0 and 0.0 stay apart): generated
    spaces repeat a few hundred distances over and over."""
    step = max(1, SAVE_BLOCK // dist.shape[1])
    for s in range(0, dist.shape[0], step):
        block = dist[s:s + step]
        bits, inv = np.unique(block.view(np.int64).ravel(), return_inverse=True)
        spelled = np.array(json.dumps(bits.view(float).tolist())[1:-1].split(", "),
                           dtype=object)
        for row in spelled[inv.reshape(block.shape)].tolist():
            yield ",\n   ".join(row)


class _Spellings(dict):
    """Each number spelling's float, converted on its first lookup."""

    def __missing__(self, spelling):
        value = self[spelling] = float(spelling)
        return value


def load_space(path: str) -> FiniteMMS:
    """Read a space written by ``save_space``.  A recipe file runs its
    generator again, which takes as long as generating did.

    json converts each number spelling with ``float``.  A generated
    space repeats a few hundred distances, so when fewer than 3/4 of the
    comma-separated tokens in the middle ``SAVE_BLOCK`` characters are
    distinct, each distinct spelling is converted once and its float
    shared; a random cloud, whose spellings are nearly all distinct,
    keeps the plain conversion.  The values are the same either way."""
    with open(path) as fh:
        text = fh.read()
    mid = len(text) // 2
    tokens = text[max(0, mid - SAVE_BLOCK // 2):mid + SAVE_BLOCK // 2].split(",")
    repeats = 4 * len(set(tokens)) < 3 * len(tokens)
    doc = json.loads(text, parse_float=_Spellings().__getitem__ if repeats else float)
    if "recipe" in doc:
        from mmslab.generators import generate  # generators imports core
        return generate(doc["recipe"]["kind"], doc["recipe"]["params"])
    if not isinstance(doc["dist"], list):
        raise ValueError("dist must be a matrix, or save a recipe")
    points = sorted(doc["points"], key=lambda p: p["id"])
    coords = None
    if points and "coords" in points[0]:
        coords = np.array([p["coords"] for p in points], dtype=float)
    return FiniteMMS(dist=np.asarray(doc["dist"], dtype=float),
                     weight=np.asarray(doc["weights"], dtype=float),
                     coords=coords, meta=doc.get("meta", {}))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj]
    return obj
