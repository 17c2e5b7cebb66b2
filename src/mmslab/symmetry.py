"""Isometry groups of finite metric measure spaces.

Isometries are permutations of the cells whose worst distance distortion
stays within a tolerance (``DEFAULT_ISO_TOL`` by default); each carries its
measured distortion and weight defect.  On top of the enumeration sit
fixed sets, the displacement functional over half-radius balls, subgroup
closures, the small-subgroup probe, a closed-form power-escape check for
Euclidean motions, and the fixed-mass versus displacement comparisons.
Every listing of a group, an enumeration or a closure, holds at most
``MAX_LISTED`` elements; a larger group is counted or left open.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from mmslab.core import (FiniteMMS, ball_indices, cell_id, require_nonnegative,
                         require_positive)

# scipy loads inside the functions that use it, so that a process which
# never calls them starts without it.

DEFAULT_ISO_TOL = 1e-9
DEFAULT_NODE_BUDGET = 2_000_000
CANDIDATE_BLOCK = 1 << 16      # entries (512 KB) per batch of a gather
# Most entries (maps x n^2) that a listing may gather to score its maps:
# earring(8, 64)'s 256 maps take 62 Mi, and circle(1, 500)'s 1,000 maps
# 250 Mi in about 1.5 s (2-core x86_64).  A larger group is counted, not
# listed.
LIST_CEILING = 1 << 28
# Most elements that any listing of a group holds, an enumeration or a
# closure: closing (Z/2)^15 on the 106-cell earring(15, 8) takes about
# 3.9 s and a 115 MB tracemalloc peak (2-core x86_64); both grow as
# elements times cells.
MAX_LISTED = 1 << 15
# Most powers ``euclidean_power_escape`` scans: for a motion that never
# escapes, about 0.6 s in R^3 and 1.5 s in R^6 (2-core x86_64).
MAX_POWER = 10_000_000
# Largest dimension k of a motion it scans: memory and time grow with the
# number of spectral blocks; at MAX_POWER a never-escaping motion of R^12
# takes about 2.1 s and a 380 MB tracemalloc peak (2-core x86_64).
MAX_MOTION_DIM = 12


# === maps and groups ===

@dataclass(frozen=True, eq=False)
class IsometryMap:
    perm: np.ndarray           # read-only index array: cell i -> perm[i]
    distortion: float
    measure_defect: float

    def is_measure_preserving(self) -> bool:
        return self.measure_defect <= 1e-9


def _perm_rows(space: FiniteMMS, perms) -> np.ndarray:
    """Permutations as (m, n) index rows.  An empty sequence is the empty
    set; anything else that is not a stack of permutations of the cells,
    such as an entry with a fractional part, raises ``ValueError``."""
    try:
        rows = np.asarray(perms)
    except ValueError:                   # rows of different lengths
        raise ValueError("not a permutation of the cells") from None
    if rows.dtype.kind == "f":          # whole cells, as 2.0: an exact cast
        whole = (rows == np.trunc(rows)) & (rows >= 0) & (rows < space.n)
        if not whole.all():
            raise ValueError("not a permutation of the cells")
    elif rows.dtype.kind not in "iu":   # bools, strings, objects
        raise ValueError("not a permutation of the cells")
    rows = rows.astype(np.intp, copy=False)
    if rows.shape == (0,):
        rows = rows.reshape(0, space.n)
    if (rows.ndim != 2 or rows.shape[1] != space.n
            or np.any(np.sort(rows, axis=1) != np.arange(space.n))):
        raise ValueError("not a permutation of the cells")
    return rows


def isometry_from_perm(space: FiniteMMS, perm) -> IsometryMap:
    perm = _perm_rows(space, [perm])[0]
    perm.setflags(write=False)
    defect = np.abs(space.weight[perm] - space.weight).max()
    return IsometryMap(perm, float(_distortions(space.dist, perm[None])[0]),
                       float(defect))


def compose(outer, inner) -> np.ndarray:
    """Permutation of ``outer after inner``: i -> outer[inner[i]]."""
    return np.asarray(outer, dtype=np.intp)[np.asarray(inner, dtype=np.intp)]


def invert(perm) -> np.ndarray:
    """Inverse permutation; on (m, n) rows, the inverse of each row."""
    return np.argsort(np.asarray(perm, dtype=np.intp), axis=-1)


@dataclass(frozen=True, eq=False)
class Subgroup:
    elements: np.ndarray       # (m, n) permutation rows, sorted
    generators: np.ndarray
    closed: bool

    def __len__(self):
        return len(self.elements)

    def __contains__(self, perm):
        return bool(np.any(np.all(self.elements == np.asarray(perm), axis=1)))


@dataclass(frozen=True)
class EnumerationResult:
    maps: tuple                # IsometryMap, sorted by permutation
    complete: bool             # maps holds every isometry
    nodes: int                 # pairs placed: base cells and search nodes
    generators: np.ndarray = field(compare=False)  # (k, n): maps found
    order: int | None = None   # of the group the chain generates, if certified
    base: tuple = ()           # cells that only the identity fixes
    orbit_sizes: tuple = ()    # per base cell: its orbit in its stabilizer

    def perms(self) -> np.ndarray:
        """The maps' permutations as (m, n) rows, sorted."""
        return np.array([m.perm for m in self.maps], dtype=np.intp)


# === enumeration ===

def _profile_pairs(dist: np.ndarray, iso_tol: float):
    """The candidate pairs (src, dst): each cell src with each cell dst
    whose sorted distance row differs from its own by at most
    ``iso_tol`` in every column, the only targets a map of distortion at
    most ``iso_tol`` can send src to.  The pairs come by src and then by
    dst, each with its row deviation max_c |p_src[c] - p_dst[c]|.

    Every column of the row-sorted matrix is one term of that maximum,
    so one column that differs by more than ``iso_tol`` rejects a pair
    exactly.  The pairs are windowed on the last column (sorted once and
    searched per row, with a rounding margin so that the window never
    drops a pair that passes), and each pair in the window gets the full
    row check, ``CANDIDATE_BLOCK`` profile entries at a time.  The pairs
    and deviations are those of the plain per-row check, bit for bit.
    """
    n = len(dist)
    profiles = np.sort(dist, axis=1)
    key = profiles[:, -1]
    by_key = np.argsort(key, kind="stable")
    sorted_key = key[by_key]
    eps = np.finfo(float).eps
    # a margin of a few ulps covers the rounding of |a - b| and of key ± reach
    reach = abs(iso_tol) * (1 + 4 * eps) + 4 * eps * np.abs(key).max()
    lo = np.searchsorted(sorted_key, key - reach)
    hi = np.searchsorted(sorted_key, key + reach, side="right")
    width = hi - lo
    ends = np.cumsum(width)
    batch = max(1, CANDIDATE_BLOCK // n)            # pairs per full check

    pairs = []
    start = 0
    while start < n:
        # the rows whose windows hold about CANDIDATE_BLOCK pairs together
        stop = max(start + 1, int(np.searchsorted(
            ends, ends[start] - width[start] + CANDIDATE_BLOCK, side="right")))
        w = width[start:stop]
        src = np.repeat(np.arange(start, stop), w)
        dst = by_key[np.arange(len(src))
                     + np.repeat(lo[start:stop] - (np.cumsum(w) - w), w)]
        dev = np.empty(len(src))
        for b in range(0, len(src), batch):
            diff = profiles[src[b:b + batch]] - profiles[dst[b:b + batch]]
            dev[b:b + batch] = np.abs(diff, out=diff).max(axis=1)
        keep = dev <= iso_tol
        src, dst, dev = src[keep], dst[keep], dev[keep]
        by_dst = np.lexsort((dst, src))          # src is sorted already
        pairs.append((src, dst[by_dst], dev[by_dst]))
        start = stop
    return tuple(map(np.concatenate, zip(*pairs)))


def _far(dist: np.ndarray, src, dst, xs, ys, tol: float) -> np.ndarray:
    """Whether |D(dst[p], y) - D(src[p], x)| > ``tol`` for some (x, y) in
    (xs, ys), per p, ``CANDIDATE_BLOCK`` entries at a time."""
    out = np.zeros(len(src), dtype=bool)
    step = max(1, CANDIDATE_BLOCK // max(len(src), 1))
    for a in range(0, len(xs), step):
        dev = dist[dst[:, None], ys[a:a + step]]
        dev -= dist[src[:, None], xs[a:a + step]]
        out |= np.any(np.abs(dev, out=dev) > tol, axis=1)
    return out


def _fix(dist: np.ndarray, state, xs, ys, tol: float):
    """A search state (image, src, dst) holds image[x], the cell that x is
    sent to or -1 while x is open, and the open cells' candidate pairs
    (src[p], dst[p]) by cell.  This is ``state`` with each open xs[a]
    sent to its candidate ys[a], refined: an open pair (u, j) survives a
    placed (x, y) only if |D(j, y) - D(u, x)| <= ``tol``, and a cell left
    with one candidate is placed in turn.  None once a cell has no
    candidate left or two cells placed together clash."""
    image, src, dst = state
    image = image.copy()
    xs, ys = np.asarray(xs, dtype=np.intp), np.asarray(ys, dtype=np.intp)
    n = len(image)
    while True:
        taken = np.zeros(n, dtype=bool)
        taken[ys] = True
        # the pairs placed together have not been checked against each other
        if (np.count_nonzero(taken) < len(ys)
                or _far(dist, xs, ys, xs, ys, tol).any()):
            return None
        image[xs] = ys
        keep = (image[src] < 0) & ~taken[dst]
        src, dst = src[keep], dst[keep]
        keep = ~_far(dist, src, dst, xs, ys, tol)
        src, dst = src[keep], dst[keep]
        counts = np.bincount(src, minlength=n)
        if np.any((image < 0) & (counts == 0)):
            return None
        single = counts[src] == 1
        if not single.any():
            return image, src, dst
        xs, ys = src[single], dst[single]


def _branch_cell(state) -> int:
    """The open cell with the fewest candidates, the lowest one on a tie."""
    counts = np.bincount(state[1], minlength=len(state[0]))
    return int(np.argmin(np.where(counts > 0, counts, len(counts) + 1)))


def _distortions(dist: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Each row's full-matrix distortion, ``CANDIDATE_BLOCK`` entries at a
    time."""
    out = np.empty(len(rows))
    step = max(1, CANDIDATE_BLOCK // dist.size)
    for a in range(0, len(rows), step):
        p = rows[a:a + step]
        dev = dist[p[:, :, None], p[:, None, :]] - dist
        out[a:a + step] = np.abs(dev, out=dev).max(axis=(1, 2))
    return out


def _transversal(gens: list, b: int, n: int) -> dict:
    """For each cell c in the orbit of b under ``gens``, a product u of
    fewer than the orbit's size of them with u[b] = c."""
    out = {b: np.arange(n)}
    queue = [b]
    for x in queue:
        for g in gens:
            y = int(g[x])
            if y not in out:
                out[y] = g[out[x]]
                queue.append(y)
    return out


def _chain(dist: np.ndarray, iso_tol: float, budget: int):
    """The stabilizer chain: its base, its transversals, the maps found,
    whether the chain is certified, and the search nodes spent."""
    n = len(dist)
    budget = max(budget, 0)      # a negative budget stops at the first node
    nodes = 0

    def search(state, x, y, tol):
        """The first map found depth first from ``state`` with x sent to y,
        at ``tol``; None if there is none or the budget ran out."""
        nonlocal nodes
        todo = [(state, [(x, y)])]
        while todo:
            state, branches = todo[-1]
            if not branches:
                todo.pop()
                continue
            u, j = branches.pop()
            nodes += 1
            if nodes > budget:
                return None
            child = _fix(dist, state, [u], [j], tol)
            if child is None:
                continue
            if not len(child[1]):
                return child[0]  # every cell placed: a map
            u = _branch_cell(child)
            cands = child[2][child[1] == u]
            todo.append((child, [(u, c) for c in cands[::-1]]))
        return None

    # level i (from 0) refines at (i + 1) * iso_tol; the base ends where
    # fixing it leaves each cell only itself, so at most n - 1 levels
    src, dst, dev = _profile_pairs(dist, n * iso_tol)
    image = np.full(n, -1)       # the base, each cell placed on itself
    base, states = [], []
    while nodes <= budget:
        tol = (len(base) + 1) * iso_tol
        # dev also holds each pair's largest deviation against the base
        keep = (dev <= tol) & (image[src] < 0) & (image[dst] < 0)
        state = _fix(dist, (image, src[keep], dst[keep]), [], [], tol)
        if not len(state[1]):
            break
        nodes += 1               # a base cell, placed on itself
        states.append(state)
        b = _branch_cell(state)
        base.append(b)
        image[b] = b
        np.maximum(dev, np.abs(dist[dst, b] - dist[src, b]), out=dev)

    gens, levels = [], [None] * len(base)    # levels: one transversal each
    worst = 0.0                  # the largest distortion of a found map
    certified = True
    for i in reversed(range(len(base))):
        b = base[i]
        levels[i] = _transversal(gens, b, n)
        for c in states[i][2][states[i][1] == b]:
            if nodes > budget or not certified:
                break
            if c in levels[i]:
                continue
            perm = search(states[i], b, c, (i + 1) * iso_tol)
            if perm is None:
                continue         # c is refuted, or the budget ran out
            # a map here above iso_tol means that iso_tol sits in no gap
            distortion = _distortions(dist, perm[None])[0]
            certified = distortion <= iso_tol
            if certified:
                worst = max(worst, distortion)
                gens.append(perm)
                levels[i] = _transversal(gens, b, n)
    # a stored map is a product of fewer than its orbit's size of found maps
    for level in levels:
        if certified and not len(level) * worst <= iso_tol / 2:
            stored = np.array([*level.values()])
            certified = _distortions(dist, stored).max() <= iso_tol
    return base, levels, gens, certified and nodes <= budget, nodes


def enumerate_isometries(space: FiniteMMS, iso_tol: float = DEFAULT_ISO_TOL,
                         budget: int = DEFAULT_NODE_BUDGET) -> EnumerationResult:
    """All cell permutations with distance distortion at most ``iso_tol``,
    by default the rounding scale ``DEFAULT_ISO_TOL``, found as a
    stabilizer chain (Sims 1970; Seress, *Permutation Group Algorithms*,
    2003) on the candidate pairs of ``_profile_pairs``.

    The base cells are fixed one at a time (``_fix``), each the open cell
    with the fewest candidates, until only the identity fixes them all.
    Then, deepest level first, each candidate image c of base cell b_i
    that the maps found so far do not reach (orbit pruning; McKay &
    Piperno, *J. Symbolic Comput.* 60, 2014) gets one depth-first search
    for a map that fixes b_1..b_(i-1) and sends b_i to c.  ``nodes``
    counts the pairs placed, one per base cell and one per search node;
    past ``budget`` the chain stops.

    Level i (from 1) refines and searches at i * ``iso_tol``, a bound on
    the distortion of a product of i maps within ``iso_tol``: a search
    that finds no map refutes c.  A map found above ``iso_tol``, or a
    stored map (a product of found ones) above it, shows that
    ``iso_tol`` sits in no gap, and the chain is not certified.  A
    certified chain holds every isometry, and ``order``, the product of
    ``orbit_sizes``, is the order of the group that ``generators``, the
    maps the searches found (each within ``iso_tol``), generate.

    ``maps`` lists the products of one stored map per level, sorted,
    each with its full-matrix distortion, except those above ``iso_tol``;
    ``complete`` means that it holds every isometry.  A listed product
    above ``iso_tol`` shows the same as a stored map above it: it is
    dropped, ``order`` is None and ``complete`` False.  No listing
    holds more than ``MAX_LISTED`` maps or gathers more than
    ``LIST_CEILING`` entries (maps x n^2): above either ``maps`` is
    empty, while ``order`` stays certified.  After a budget cut or in a
    chain that is not certified, ``order`` is None, and ``maps`` lists
    the same way the products of the maps stored so far that lie within
    ``iso_tol``: not every isometry, and nothing above either ceiling.  A NaN or
    negative ``iso_tol`` raises ``ValueError``.
    """
    if not iso_tol >= 0:
        raise ValueError(f"iso_tol must be a nonnegative number, got {iso_tol}")
    dist, n = space.dist, space.n
    base, levels, gens, certified, nodes = _chain(dist, iso_tol, budget)
    generators = np.array(gens, dtype=np.intp).reshape(-1, n)
    generators.setflags(write=False)
    sizes = tuple(len(level) for level in levels)
    count = math.prod(sizes)
    listed = count <= MAX_LISTED and count * n * n <= LIST_CEILING
    maps = ()
    if listed:
        rows = np.arange(n)[None]
        for level in reversed(levels):
            rows = np.array([*level.values()])[:, rows].reshape(-1, n)
        rows = rows[np.lexsort(rows.T[::-1])]
        distortion = _distortions(dist, rows)
        keep = distortion <= iso_tol
        certified = certified and bool(keep.all())
        rows = rows[keep]
        rows.setflags(write=False)
        defect = np.abs(space.weight[rows] - space.weight).max(axis=1)
        maps = tuple(map(IsometryMap, rows, distortion[keep].tolist(),
                         defect.tolist()))
    return EnumerationResult(
        maps=maps, complete=certified and listed, nodes=nodes,
        generators=generators, order=count if certified else None,
        base=tuple(base), orbit_sizes=sizes)


def generate_subgroup(space: FiniteMMS, gens) -> Subgroup:
    """Closure of the generators under composition, from the identity.

    A finite set of permutations closed under composition is a group, so
    no inverses are taken.  Generators already in the closure are
    skipped; each one kept restarts a queue at the first element,
    composes every element with every kept generator, ``CANDIDATE_BLOCK``
    entries (at least one row) at a time, and appends the new products
    (Butler, *Fundamental Algorithms for Permutation Groups*, LNCS 559,
    1991).  The closure stops once it holds more than ``MAX_LISTED``
    elements, so ``closed`` means the group has at most ``MAX_LISTED``;
    an open result holds more than ``MAX_LISTED`` elements of the
    group."""
    gens = np.unique(_perm_rows(space, gens), axis=0)
    n = space.n
    queue = [np.arange(n).tobytes()]
    seen = set(queue)
    kept = []
    for gen in gens:
        if len(seen) > MAX_LISTED:
            break
        if gen.tobytes() in seen:
            continue
        kept.append(gen)
        seeds = np.array(kept)
        step = max(1, CANDIDATE_BLOCK // (len(seeds) * n))
        head = 0
        while head < len(queue) and len(seen) <= MAX_LISTED:
            rows = np.frombuffer(b"".join(queue[head:head + step]),
                                 dtype=np.intp).reshape(-1, n)
            head += len(rows)
            for key in map(np.ndarray.tobytes, rows[:, seeds].reshape(-1, n)):
                if key not in seen:
                    seen.add(key)
                    queue.append(key)
    closed = len(seen) <= MAX_LISTED
    del seen
    # The elements are distinct, so sorting them as rows gives what
    # np.unique(axis=0) returns; it is done in place, with the structured
    # view that np.unique sorts by, and the bytes keys are copied in
    # blocks, so no second or third full copy is made.
    elements = np.empty((len(queue), n), dtype=np.intp)
    step = max(1, CANDIDATE_BLOCK // n)
    for s in range(0, len(queue), step):
        block = queue[s:s + step]
        elements[s:s + len(block)] = np.frombuffer(
            b"".join(block), dtype=np.intp).reshape(-1, n)
    del queue
    elements.view([(f"f{i}", np.intp) for i in range(n)]).sort(axis=0)
    return Subgroup(elements=elements, generators=gens, closed=closed)


# === fixed sets and displacement ===

@dataclass(frozen=True)
class FixedSet:
    indices: tuple
    mass: float
    ball_masses: tuple = field(default_factory=tuple)


def fixed_set(space: FiniteMMS, perm, fix_tol: float | None = None,
              balls=()) -> FixedSet:
    """Cells moved by at most ``fix_tol`` (one grid pitch by default),
    their mass, and optionally the fixed mass inside balls given as
    (center, radius) pairs.  ``fix_tol`` and the radii must be finite
    and nonnegative."""
    if fix_tol is None:
        fix_tol = space.pitch()
    require_nonnegative("fix_tol", fix_tol)
    for _, radius in balls:
        require_nonnegative("ball radius", radius)
    perm = _perm_rows(space, [perm])[0]
    moved = space.dist[np.arange(space.n), perm]
    idx = np.flatnonzero(moved <= fix_tol)
    inside = []
    for center, radius in balls:
        bidx = ball_indices(space, center, float(radius))
        keep = bidx[moved[bidx] <= fix_tol]
        inside.append(float(space.weight[keep].sum()))
    return FixedSet(indices=tuple(int(v) for v in idx),
                    mass=float(space.weight[idx].sum()),
                    ball_masses=tuple(inside))


def _orbit_reach(space: FiniteMMS, rows: np.ndarray) -> np.ndarray:
    """Per cell y, the largest d(y, z) over y's orbit under the group that
    ``rows`` generate: the components of y -> g(y) by label hooking and
    pointer jumping, O(n k) entries a round, then one gather per size."""
    label = np.arange(space.n)
    src, dst = np.tile(label, len(rows)), rows.ravel()
    while np.any((a := label[src]) != (b := label[dst])):
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        while np.any(label != label[label]):
            label = label[label]
    reach = np.zeros(space.n)
    by_orbit = np.argsort(label, kind="stable")
    size = np.bincount(label)[label[by_orbit]]
    for s in np.unique(size[size > 1]):     # the orbits of s cells, as rows
        orbits = by_orbit[size == s].reshape(-1, s)
        reach[orbits] = space.dist[orbits[:, :, None], orbits[:, None]].max(2)
    return reach


def displacement(space: FiniteMMS, group, r: float, x: int) -> float:
    """Largest d(y, g(y)) over y within r/2 of x and g in the group that
    ``group`` generates (trivial if empty): y's largest distance to its orbit."""
    require_nonnegative("r", r)
    reach = _orbit_reach(space, _perm_rows(space, group))
    return float(reach[ball_indices(space, x, r / 2.0)].max(initial=0.0))


# === small subgroups ===

@dataclass(frozen=True)
class SubgroupProbe:
    found: bool
    inconclusive: bool
    epsilon: float
    subgroup: Subgroup | None = None
    sup_displacement: float = 0.0
    candidates: int = 0


def small_subgroup_probe(space: FiniteMMS, epsilon: float, compact=None, *,
                         maps: EnumerationResult) -> SubgroupProbe:
    """Look for a nontrivial subgroup whose elements all move the compact
    set ``compact`` (every cell by default) by less than ``epsilon``.

    Each listed nontrivial map g that moves ``compact`` less is scored
    by the sup over <g>, the largest distance from a compact cell to its
    cycle under g; the first below ``epsilon`` is closed as the witness.
    An incomplete enumeration makes a negative answer inconclusive.  A
    NaN, infinite or nonpositive ``epsilon``, an empty ``compact`` or an
    id outside the space raises."""
    require_positive("epsilon", epsilon)
    compact = (np.arange(space.n) if compact is None else
               np.array([cell_id(space, i) for i in compact], dtype=np.intp))
    if not compact.size:
        raise ValueError("compact must hold at least one cell")
    rows = maps.perms().reshape(len(maps.maps), space.n)
    moves = space.dist[compact, rows[:, compact]].max(axis=1)
    small = rows[np.any(rows != np.arange(space.n), axis=1) & (moves < epsilon)]
    for perm in small:
        sup = float(_orbit_reach(space, perm[None])[compact].max())
        if sup < epsilon:
            return SubgroupProbe(found=True, inconclusive=False,
                                 epsilon=epsilon,
                                 subgroup=generate_subgroup(space, [perm]),
                                 sup_displacement=sup, candidates=len(small))
    return SubgroupProbe(found=False, inconclusive=not maps.complete,
                         epsilon=epsilon, candidates=len(small))


# === Euclidean power escape ===

@dataclass(frozen=True)
class EuclideanIsometry:
    """Rigid motion y -> Q y + v of R^k; Q and v must be finite, and Q
    orthogonal to 1e-12."""

    q: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        q = np.atleast_2d(np.asarray(self.q, dtype=float))
        v = np.atleast_1d(np.asarray(self.v, dtype=float))
        if q.shape[0] != q.shape[1] or q.shape[0] != v.shape[0]:
            raise ValueError("shape mismatch between Q and v")
        if not (np.isfinite(q).all() and np.isfinite(v).all()):
            raise ValueError("Q and v must be finite")
        if np.max(np.abs(q.T @ q - np.eye(q.shape[0]))) > 1e-12:
            raise ValueError("Q is not orthogonal")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "v", v)

    @property
    def k(self) -> int:
        return self.q.shape[0]

    def is_identity(self) -> bool:
        return (float(np.max(np.abs(self.q - np.eye(self.k)))) +
                math.hypot(*self.v)) <= 1e-12


@dataclass(frozen=True)
class EscapeResult:
    found: bool
    n: int
    displacement: float
    threshold: float
    max_pow: int


def _block_data(iso: EuclideanIsometry):
    """Split the motion into spectral blocks: rotation angles and the
    translation component inside each block."""
    from scipy.linalg import schur
    t, z = schur(iso.q, output="real")
    w = z.T @ iso.v
    blocks = []          # (kind, angle, |v_block|); kind in {rot, flip, keep}
    i = 0
    k = iso.k
    while i < k:
        if i + 1 < k and abs(t[i + 1, i]) > 1e-12:
            # only the magnitude of the rotation angle enters the amplitudes
            angle = abs(math.atan2(t[i + 1, i], t[i, i]))
            blocks.append(("rot", angle, float(np.hypot(w[i], w[i + 1]))))
            i += 2
        elif t[i, i] < 0:
            blocks.append(("flip", math.pi, float(abs(w[i]))))
            i += 1
        else:
            blocks.append(("keep", 0.0, float(abs(w[i]))))
            i += 1
    return blocks


def _block_amplitudes(blocks, n):
    """Per block: operator amplitude of Q^n - I and norm of the
    accumulated translation sum_{j<n} Q^j v.  ``n`` is a power or an
    array of powers; each block then gives a value per power."""
    n = np.asarray(n, dtype=float)
    sig, trans = [], []
    for kind, angle, vn in blocks:
        if kind == "rot":
            wave = np.sin(n * angle / 2.0)
            sig.append(np.abs(2.0 * wave))
            trans.append(vn * np.abs(wave / math.sin(angle / 2.0)))
        elif kind == "flip":
            sig.append(2.0 * (n % 2))
            trans.append(vn * (n % 2))
        else:
            sig.append(np.zeros_like(n))
            trans.append(vn * n)
    return np.asarray(sig), np.asarray(trans)


def _sup_on_half_ball(sig, trans):
    """Exact sup of |(Q^n - I) y + c| over |y| <= 1/2, given per-block
    amplitudes.

    The objective is convex, so the maximum sits on the sphere; the
    multiplier equation t_i = s_i c_i / (lam - s_i^2) covers the generic
    case, and when the strongest blocks carry no translation the leftover
    radius goes to one of them at lam = s_max^2 (the hard case)."""
    live = sig > 1e-15
    s, c = sig[live], trans[live]
    smax = float(np.max(s, initial=0.0))    # 0 if Q^n fixes every block
    tie = s >= smax * (1.0 - 1e-12)
    lo = smax**2

    def excess(lam):
        t = s * c / (lam - s**2)
        return float(np.sum(t**2)) - 0.25

    eps = max(lo, 1e-30) * 1e-12
    if np.any(tie & (c > 0.0)) or excess(lo + eps) > 0.0:
        hi = lo + eps
        while excess(hi) > 0.0:
            hi = 2.0 * hi + 1.0
        from scipy.optimize import brentq
        lam = brentq(excess, lo + eps, hi, xtol=1e-18, rtol=1e-13)
        t = s * c / (lam - s**2)
        slack = 0.0
    else:
        t = np.zeros_like(s)
        t[~tie] = s[~tie] * c[~tie] / (lo - s[~tie] ** 2)
        slack = max(0.25 - float(np.sum(t**2)), 0.0)
    return math.hypot(*(s * t + c), *trans[~live], math.sqrt(lo * slack))


def euclidean_power_escape(iso: EuclideanIsometry, threshold: float = 0.05,
                           max_pow: int = MAX_POWER) -> EscapeResult:
    """Smallest power n whose displacement on the closed ball of radius
    1/2 around the origin reaches ``threshold``.

    The displacement of g^n is evaluated in closed form from the
    spectral blocks of Q and the accumulated translation, so powers are
    scanned without iterating the map.  Cheap bounds locate the first
    candidate range; the exact supremum decides inside it.  ``max_pow``
    below 1 or above ``MAX_POWER``, a dimension ``iso.k`` above
    ``MAX_MOTION_DIM`` or a NaN, infinite or nonpositive ``threshold``
    raises.
    """
    require_positive("threshold", threshold)
    if not 1 <= max_pow <= MAX_POWER:
        raise ValueError(f"max_pow must lie in [1, {MAX_POWER}], got {max_pow}")
    if iso.k > MAX_MOTION_DIM:
        raise ValueError(f"k must be at most {MAX_MOTION_DIM}, got {iso.k}")
    if iso.is_identity():
        raise ValueError("the identity never escapes")
    blocks = _block_data(iso)
    chunk = 4096                 # grows geometrically; escapes are usually early
    best_ub, best_n = -1.0, 1
    start = 1
    while start <= max_pow:
        ns = np.arange(start, min(start + chunk - 1, max_pow) + 1, dtype=float)
        with np.errstate(over="ignore"):    # inf bounds a huge shift too
            sig, trans = _block_amplitudes(blocks, ns)
            ub = np.sqrt(np.sum((sig / 2.0 + trans) ** 2, axis=0))
        top = int(np.argmax(ub))
        if ub[top] > best_ub:
            best_ub, best_n = float(ub[top]), start + top
        hit = np.flatnonzero(ub >= threshold)
        if len(hit):
            # the exact supremum decides from the first candidate on; once
            # one block alone clears the threshold the walk stops, so the
            # gap between bound and verdict stays short
            n = start + int(hit[0])
            while n <= max_pow:
                sup = _sup_on_half_ball(*_block_amplitudes(blocks, n))
                if sup >= threshold:
                    return EscapeResult(found=True, n=n,
                                        displacement=float(sup),
                                        threshold=threshold, max_pow=max_pow)
                n += 1
            break
        start += chunk
        chunk = min(chunk * 8, 1_048_576)
    sup = _sup_on_half_ball(*_block_amplitudes(blocks, best_n))
    return EscapeResult(found=False, n=0, displacement=float(sup),
                        threshold=threshold, max_pow=max_pow)


# === fixed mass versus displacement ===

@dataclass(frozen=True)
class ConditionAReport:
    holds: bool
    vacuous: bool
    complete: bool
    fix_sup: float
    ball_mass: float
    gap: float
    normalized_gap: float
    nontrivial: int


def condition_a_scan(space: FiniteMMS, x: int, s: float,
                     fix_tol: float | None = None, *,
                     maps: EnumerationResult) -> ConditionAReport:
    """Largest fixed mass (cells moved by at most ``fix_tol``, one pitch
    by default) any nontrivial map of ``maps`` keeps inside the ball of
    radius ``s`` around ``x``, against the ball's own mass.

    The condition holds when the gap is strictly positive and ``maps``
    is complete.  With no nontrivial map listed the supremum is
    reported as zero; it is ``vacuous``, the strongest possible
    verdict, only when ``maps`` is complete too, since a group counted
    but not listed has maps that this scan never sees.  ``s`` and
    ``fix_tol`` must be finite and nonnegative.
    """
    require_nonnegative("s", s)
    if fix_tol is None:
        fix_tol = space.pitch()
    require_nonnegative("fix_tol", fix_tol)
    ball = ball_indices(space, x, s)
    ball_mass = float(space.weight[ball].sum())
    rows = maps.perms().reshape(len(maps.maps), space.n)
    rows = rows[np.any(rows != np.arange(space.n), axis=1)]
    fixed = space.dist[ball, rows[:, ball]] <= fix_tol
    fix_sup = max((float(space.weight[ball[keep]].sum()) for keep in fixed),
                  default=0.0)
    gap = ball_mass - fix_sup
    return ConditionAReport(
        holds=bool(gap > 0.0) and maps.complete,
        vacuous=len(rows) == 0 and maps.complete,
        complete=maps.complete,
        fix_sup=fix_sup,
        ball_mass=ball_mass,
        gap=gap,
        normalized_gap=gap / ball_mass if ball_mass > 0 else math.inf,
        nontrivial=len(rows),
    )


@dataclass(frozen=True)
class LargeFixReport:
    ok: bool
    hypothesis_holds: bool
    conclusion_holds: bool
    xi: float
    moved_mass: float
    min_small_ball: float
    displacement_sup: float
    bound: float


def large_fix_implies_small_displacement(space: FiniteMMS, perm, x: int,
                                         n_scale: int,
                                         fix_tol: float | None = None) -> LargeFixReport:
    """Quantitative fixed-mass criterion at scale N = ``n_scale``.

    xi is the normalized worst mass of the small balls B_{1/N}(y) inside
    B_N(x).  If the moved mass inside B_N(x) is smaller than every such
    small ball, then no point of B_N(x) can move further than 2/N, up to
    one grid pitch of slack.  The report carries both sides and whether
    the implication was exercised or held vacuously.
    """
    if fix_tol is None:
        fix_tol = space.pitch()
    perm = _perm_rows(space, [perm])[0]
    big = ball_indices(space, x, float(n_scale))
    big_mass = float(space.weight[big].sum())
    small = min(
        float(space.weight[big[space.dist[y, big] <= 1.0 / n_scale]].sum())
        for y in big)
    xi = small / big_mass

    moved = space.dist[big, perm[big]]
    moved_mass = float(space.weight[big[moved > fix_tol]].sum())
    disp = float(moved.max())
    bound = 2.0 / n_scale + space.pitch()
    hypothesis = moved_mass < small
    conclusion = disp < bound
    return LargeFixReport(
        ok=(not hypothesis) or conclusion,
        hypothesis_holds=hypothesis,
        conclusion_holds=conclusion,
        xi=xi,
        moved_mass=moved_mass,
        min_small_ball=small,
        displacement_sup=disp,
        bound=bound,
    )


# === the critical displacement scale ===

@dataclass(frozen=True)
class CriticalScale:
    r: float
    bracket: tuple
    displacement: float
    defect: float


def critical_scale(space: FiniteMMS, group, x: int, lo: float,
                   hi: float) -> CriticalScale:
    """The first radius at or above ``lo`` where the displacement D of
    the group that ``group`` generates crosses r/20 downward: adjacent
    floats (a, b) with D(a) >= a/20 and D(b) < b/20, D(a) and its defect.
    D, the running maximum of ``_orbit_reach`` over the cells by d(x, .),
    steps up at r = 2 d(x, y); on a step of height c, D(r) >= r/20 holds
    up to the largest float r with r/20 <= c, and each crossing is such an
    end.  Requires D(lo) >= lo/20, D(hi) < hi/20, ``lo`` and ``hi``
    finite and nonnegative, and ``group`` not empty."""
    require_nonnegative("lo", lo)
    require_nonnegative("hi", hi)
    rows = _perm_rows(space, group)
    if not len(rows):           # as listed for a group counted, not listed
        raise ValueError("group must hold at least one permutation")
    row = space.dist[cell_id(space, x)]
    by_dist = np.argsort(row, kind="stable")
    steps = 2.0 * row[by_dist]              # r/2 <= d exactly when r <= 2d
    heights = np.maximum.accumulate(_orbit_reach(space, rows)[by_dist])

    def holds(r):                           # D(r) >= r/20, per radius
        return heights[np.searchsorted(steps, r, side="right") - 1] >= r / 20

    if not holds(lo) or holds(hi):
        raise ValueError("no crossing inside the bracket")
    # each step's end: from below 20 c up to the largest r with r/20 <= c
    ends = np.nextafter(20.0 * heights, -np.inf)
    while np.any(fits := np.nextafter(ends, np.inf) / 20.0 <= heights):
        ends[fits] = np.nextafter(ends[fits], np.inf)
    a = ends[(ends >= lo) & holds(ends)
             & ~holds(np.nextafter(ends, np.inf))].min()
    d = heights[np.searchsorted(steps, a, side="right") - 1]
    return CriticalScale(r=float(a), bracket=(float(a), float(np.nextafter(
        a, np.inf))), displacement=float(d), defect=float(abs(d - a / 20)))
