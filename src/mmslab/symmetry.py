"""Isometry groups of finite metric measure spaces.

Isometries are permutations of the cells whose worst distance distortion
stays within a tolerance (``DEFAULT_ISO_TOL`` by default); each carries its
measured distortion and weight defect.  On top of the enumeration sit
fixed sets, the displacement functional over half-radius balls, subgroup
closures, the small-subgroup probe, a closed-form power-escape check for
Euclidean motions, and the fixed-mass versus displacement comparisons.
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
DEFAULT_GROUP_BUDGET = 4096
COMPOSE_BLOCK = 1 << 17        # index entries (1 MB) per batch of a closure
CANDIDATE_BLOCK = 1 << 16      # profile entries (512 KB) per candidate batch
CHAIN_DEPTHS = 1 << 8          # depths per chain step: a 512 KB pick check
CHAIN_FLOOR = 1 << 11          # least entries (16 KB) a chain step may gather
# Most powers ``euclidean_power_escape`` scans: for a motion that never
# escapes, about 0.6 s in R^3 and 1.5 s in R^6 (2-core x86_64).
MAX_POWER = 10_000_000
# Largest dimension k of a motion it scans: memory and time grow with the
# number of spectral blocks; at MAX_POWER a never-escaping motion of R^12
# takes about 2.1 s and a 380 MB tracemalloc peak (2-core x86_64).
MAX_MOTION_DIM = 12
# Largest group ``budget`` of a closure: reaching it, the closure of
# (Z/2)^15 on the 106-cell earring(15, 8) takes about 3.9 s and a 115 MB
# tracemalloc peak (2-core x86_64); both grow as elements times cells.
MAX_GROUP_BUDGET = 1 << 15


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


def _isometry_map(space: FiniteMMS, perm: np.ndarray,
                  distortion: float) -> IsometryMap:
    perm.setflags(write=False)
    defect = float(np.max(np.abs(space.weight[perm] - space.weight)))
    return IsometryMap(perm=perm, distortion=distortion, measure_defect=defect)


def isometry_from_perm(space: FiniteMMS, perm) -> IsometryMap:
    perm = _perm_rows(space, [perm])[0]
    moved = space.dist.take(perm, axis=0).take(perm, axis=1) - space.dist
    return _isometry_map(space, perm, float(np.abs(moved, out=moved).max()))


def _check_group_budget(budget):
    if not budget <= MAX_GROUP_BUDGET:
        raise ValueError(f"budget must be at most {MAX_GROUP_BUDGET}, "
                         f"got {budget}")


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
    complete: bool
    nodes: int

    def perms(self) -> np.ndarray:
        """The maps' permutations as (m, n) rows, sorted."""
        return np.array([m.perm for m in self.maps], dtype=np.intp)


# === enumeration ===

def profile_candidates(dist: np.ndarray, iso_tol: float) -> list:
    """For each cell i, the cells j (ascending) whose sorted distance
    rows differ by at most ``iso_tol`` in every column: the only targets
    a map of distortion at most ``iso_tol`` can send i to.

    Every column of the row-sorted matrix is one term of that maximum,
    so one column that differs by more than ``iso_tol`` rejects a pair
    exactly.  The pairs are windowed on the last column (sorted once and
    searched per row, with a rounding margin so that the window never
    drops a pair that passes), thinned on the quartile columns, and only
    the survivors get the full row check, ``CANDIDATE_BLOCK`` profile
    entries at a time.  The lists are those of the plain per-row check,
    element for element.
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
    cols = np.unique([n // 4, n // 2, 3 * n // 4, n - 1])
    group = max(1, CANDIDATE_BLOCK // len(cols))    # window pairs per group
    batch = max(1, CANDIDATE_BLOCK // n)            # pairs per full check

    cand = []
    start = 0
    while start < n:
        stop = max(start + 1, int(np.searchsorted(
            ends, ends[start] - width[start] + group, side="right")))
        w = width[start:stop]
        src = np.repeat(np.arange(start, stop), w)
        dst = by_key[np.arange(len(src))
                     + np.repeat(lo[start:stop] - (np.cumsum(w) - w), w)]
        far = np.abs(profiles[src[:, None], cols] - profiles[dst[:, None], cols])
        keep = ~np.any(far > iso_tol, axis=1)
        src, dst = src[keep], dst[keep]
        keep = np.empty(len(src), dtype=bool)
        for b in range(0, len(src), batch):
            diff = profiles[src[b:b + batch]] - profiles[dst[b:b + batch]]
            keep[b:b + batch] = np.abs(diff, out=diff).max(axis=1) <= iso_tol
        src, dst = src[keep], dst[keep]
        dst = dst[np.lexsort((dst, src))]
        counts = np.bincount(src - start, minlength=stop - start)
        cand.extend(np.split(dst, np.cumsum(counts)[:-1]))
        start = stop
    return cand


def _search(dist: np.ndarray, cand: list, iso_tol: float, budget: int):
    """Depth-first extension of sources, fewest candidates first; returns
    the maps found as ``(perm, worst)`` pairs sorted by permutation,
    whether the search finished, and its node count.  ``worst`` is the
    largest deviation the search measured along the map's path.

    The matrix is held in search order, so depth d checks a candidate c
    of source ``order[d]`` against the assigned prefix as the row
    ``ordered[d, :d]`` against the gather ``dist[c, target[:d]]``, where
    ``target[e]`` is the cell assigned at depth e.  A node is an unused
    candidate tried at a depth, counted in list order before the budget
    test and before the prune.

    Each descent to depth d takes a chain step first.  It checks the
    unused candidates of depths d, d + 1, ... against ``target[:d]`` in
    one blocked gather: first on the last prefix column alone, then the
    survivors on all of them.  Along the longest run of depths where
    exactly one candidate survives, the survivors are the only possible
    picks; the lower triangle of ``ordered[d:e, d:e]`` against
    ``dist[picks][:, picks]`` checks them against each other, and the
    run is cut at the first pick that fails or repeats.  With every
    deviation finite, a maximum over some columns that exceeds
    ``iso_tol`` also exceeds it over all of them, so the picks are
    exactly the cells that the one-depth walk keeps.

    The nodes of a forced depth are counted in bulk: those up to and
    including its pick at once, those after it as an integer on the
    level stack, added when the walk pops that depth, which is when the
    one-depth walk counts them.  Both additions take the budget test;
    one that overshoots stops at ``budget + 1`` nodes with no new map,
    since no leaf lies among the nodes it skips.  The first depth
    without a forced pick is walked one candidate at a time.

    Each placed depth keeps in ``worst`` its largest deviation against
    the depths placed before it, from row maxima that the checks reduce
    anyway: the full prefix check of its pick or of its walked
    candidate, and for a pick also its row of the pick-against-pick
    triangle.  The maximum over a map's depths covers each pair of
    distinct cells once, in one order.

    With ``cap = min(CANDIDATE_BLOCK, max(n * n, CHAIN_FLOOR))``, a step
    takes at most ``CHAIN_DEPTHS`` depths and ``cap // 2`` candidates,
    and cuts its block short at the depth where the full check of its
    survivors would gather more than ``cap`` entries (never short of
    depth d itself), so its temporaries stay near the n * n entries that
    one depth's check may gather.  The floor lets a step on a small
    space cover a whole forced map, which a cap of n * n splits in two.
    Two tables, built once, replace per-step index arithmetic: the depth
    of every flat candidate entry, and the depth where the step from
    each depth ends."""
    n = len(dist)
    budget = max(budget, 0)      # a negative budget stops at the first node
    order = np.argsort([len(c) for c in cand], kind="stable")
    ordered = dist[np.ix_(order, order)]
    flat = np.concatenate([cand[i] for i in order] + [np.empty(0, np.intp)])
    counts = np.array([len(cand[i]) for i in order], dtype=np.intp)
    starts = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(counts, out=starts[1:])
    cap = min(CANDIDATE_BLOCK, max(n * n, CHAIN_FLOOR))
    depth_of = np.repeat(np.arange(n, dtype=np.int32), counts)  # per entry
    d = np.arange(n)
    step_end = np.clip(
        np.searchsorted(starts, starts[:-1] + cap // 2, side="right") - 1,
        d + 1, np.minimum(d + CHAIN_DEPTHS, n)).tolist()
    below = np.tri(min(n, CHAIN_DEPTHS), k=-1, dtype=bool)
    target = np.empty(n, dtype=np.intp)
    worst = np.zeros(n)          # per depth: its deviation from the prefix
    used = [False] * n
    found = []
    nodes = 0
    levels = []      # per depth: the walk of its candidates, or the nodes left

    def record():
        perm = np.empty(n, dtype=np.intp)
        perm[order] = target
        found.append((perm, float(worst.max())))

    def descend(d):
        """Place the forced picks from depth d on and push the walk of the
        first depth without one; False once the budget is spent."""
        nonlocal nodes
        while True:
            a = starts[d]
            stop = step_end[d]
            cells = flat[a:starts[stop]]
            rows = depth_of[a:starts[stop]]
            mark = np.full(n, n)         # -1 on the prefix, later pick depths
            mark[target[:d]] = -1
            live = np.flatnonzero(mark[cells] >= 0)
            if d > 1:                    # thin on the last column first
                dev = ordered[rows[live], d - 1]
                dev -= dist[cells[live], target[d - 1]]
                live = live[~(np.abs(dev, out=dev) > iso_tol)]
                if len(live) * d > cap:
                    stop = max(d + 1, rows[live[cap // d]])
                    live = live[rows[live] < stop]
            dev = ordered[rows[live], :d]
            dev -= dist[cells[live, None], target[:d]]
            dev = np.abs(dev, out=dev).max(axis=1, initial=0.0)
            keep = ~(dev > iso_tol)
            live, dev = live[keep], dev[keep]
            forced = np.bincount(rows[live], minlength=stop)[d:] == 1
            run = stop - d if forced.all() else int(forced.argmin())
            if not run:
                head = starts[d + 1] - a
                k = int(np.searchsorted(live, head))
                far = np.ones(head, dtype=bool)
                far[live[:k]] = False
                score = np.zeros(head)
                score[live[:k]] = dev[:k]
                levels.append(zip(cells[:head].tolist(), far.tolist(),
                                  score.tolist()))
                return True
            pos = live[:run]
            picks = cells[pos]
            depths = np.arange(d, d + run)
            pair = ordered[d:d + run, d:d + run] - dist[picks[:, None], picks]
            pair = np.abs(pair, out=pair).max(axis=1, initial=0.0,
                                              where=below[:run, :run])
            bad = pair > iso_tol
            np.minimum.at(mark, picks, depths)
            bad |= mark[picks] < depths
            if bad.any():
                run = int(bad.argmax())
                pos, picks = pos[:run], picks[:run]
            end = starts[d + run] - a
            seen = np.add.accumulate(mark[cells[:end]] >= rows[:end],
                                     dtype=np.intp)
            upto = seen[pos]
            total = seen[starts[d + 1:d + run + 1] - a - 1]
            nodes += int(upto.sum() - total[:-1].sum())
            if nodes > budget:
                nodes = budget + 1
                return False
            target[d:d + run] = picks
            np.maximum(pair[:run], dev[:run], out=worst[d:d + run])
            for j in picks.tolist():
                used[j] = True
            levels.extend((total - upto).tolist())
            d += run
            if d == n:
                used[target[-1]] = False
                record()
                return True

    complete = descend(0)
    while complete and levels:
        depth = len(levels) - 1
        top = levels[-1]
        if type(top) is int:     # the nodes after a forced pick, now due
            nodes += top
            step = None
        else:
            step = next(top, None)
        if step is None:
            if nodes > budget:
                nodes = budget + 1
                complete = False
                break
            levels.pop()
            if depth:
                used[target[depth - 1]] = False
            continue
        j, far, score = step
        if used[j]:
            continue
        nodes += 1
        if nodes > budget:
            complete = False
            break
        if far:
            continue
        target[depth] = j
        worst[depth] = score
        if depth == n - 1:
            record()
            continue
        used[j] = True
        complete = descend(depth + 1)
    perms = np.array([perm for perm, _ in found], dtype=np.intp)
    _, by_perm = np.unique(perms.reshape(-1, n), axis=0, return_index=True)
    return [found[k] for k in by_perm], complete, nodes


def enumerate_isometries(space: FiniteMMS, iso_tol: float = DEFAULT_ISO_TOL,
                         budget: int = DEFAULT_NODE_BUDGET) -> EnumerationResult:
    """All cell permutations with distance distortion at most ``iso_tol``,
    by default the rounding scale ``DEFAULT_ISO_TOL``.

    A map of distortion at most ``iso_tol`` sends each cell i to a cell
    j whose sorted distance row p_j satisfies max_c |p_i[c] - p_j[c]| <=
    ``iso_tol``.  Every column c is one term of that maximum, so one
    column with |p_i[c] - p_j[c]| > ``iso_tol`` rules the pair out
    exactly: ``profile_candidates`` windows the pairs on the last column,
    tests the quartile columns, and runs the full row check only on the
    pairs left, which gives the per-row lists exactly.

    Sources are then extended depth first, fewest candidates first, and
    each depth checks all candidates of its source against the cells
    already assigned in one vectorized step (``_search``).  A node is
    one extension attempt: an unused candidate target tried for a
    source, whether or not the distance check keeps it.  Past ``budget``
    nodes the search stops and flags the result incomplete rather than
    failing.

    Once two or three cells are placed, most depths are forced: one
    unused candidate survives.  A chain step finds such a run of depths
    in one gather against the cells placed so far, checks the picks
    against each other, and places them together.  Checking fewer
    columns first is exact, since with finite deviations one column
    over ``iso_tol`` rules a candidate out.  The forced depths' other
    candidates are counted in bulk where the one-depth walk would count
    them, so the maps, ``nodes``, ``complete`` and every budget cut stay
    those of that walk.  A NaN or negative ``iso_tol`` raises
    ``ValueError``.

    Each map's ``distortion`` is the largest deviation the search itself
    measured along the map's path: each pair of distinct cells once, in
    one order.  A ``FiniteMMS`` is exactly symmetric with a zero
    diagonal, so that equals the maximum over the whole matrix, bit for
    bit.
    """
    if not iso_tol >= 0:
        raise ValueError(f"iso_tol must be a nonnegative number, got {iso_tol}")
    dist = space.dist
    found, complete, nodes = _search(
        dist, profile_candidates(dist, iso_tol), iso_tol, budget)
    maps = tuple(_isometry_map(space, perm, worst) for perm, worst in found)
    return EnumerationResult(maps=maps, complete=complete, nodes=nodes)


def generate_subgroup(space: FiniteMMS, gens,
                      budget: int = DEFAULT_GROUP_BUDGET) -> Subgroup:
    """Closure of the generators under composition, from the identity.

    A finite set of permutations closed under composition is a group, so
    no inverses are taken.  Generators already in the closure are
    skipped; each one kept restarts a queue at the first element,
    composes every element with every kept generator, ``COMPOSE_BLOCK``
    entries (at least one row) at a time, and appends the new products
    (Butler, *Fundamental Algorithms for Permutation Groups*, LNCS 559,
    1991).  The closure stops once it holds more than ``budget``
    elements, so ``closed`` means the group has at most ``budget``; an
    open result holds more than ``budget`` elements of the group.  A
    ``budget`` above ``MAX_GROUP_BUDGET`` raises ``ValueError``."""
    _check_group_budget(budget)
    gens = np.unique(_perm_rows(space, gens), axis=0)
    n = space.n
    queue = [np.arange(n).tobytes()]
    seen = set(queue)
    kept = []
    for gen in gens:
        if len(seen) > budget:
            break
        if gen.tobytes() in seen:
            continue
        kept.append(gen)
        seeds = np.array(kept)
        step = max(1, COMPOSE_BLOCK // (len(seeds) * n))
        head = 0
        while head < len(queue) and len(seen) <= budget:
            rows = np.frombuffer(b"".join(queue[head:head + step]),
                                 dtype=np.intp).reshape(-1, n)
            head += len(rows)
            for key in map(np.ndarray.tobytes, rows[:, seeds].reshape(-1, n)):
                if key not in seen:
                    seen.add(key)
                    queue.append(key)
    closed = len(seen) <= budget
    del seen
    # The elements are distinct, so sorting them as rows gives what
    # np.unique(axis=0) returns; it is done in place, with the structured
    # view that np.unique sorts by, and the bytes keys are copied in
    # blocks, so no second or third full copy is made.
    elements = np.empty((len(queue), n), dtype=np.intp)
    step = max(1, COMPOSE_BLOCK // n)
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


def displacement(space: FiniteMMS, group, r: float, x: int) -> float:
    """Largest move of any group element on the closed half-radius ball:
    sup over g and over y within r/2 of x of d(y, g(y))."""
    require_nonnegative("r", r)
    return _displacement(space, _perm_rows(space, group), r, x)


def _displacement(space: FiniteMMS, rows: np.ndarray, r: float, x: int) -> float:
    """``displacement`` on validated permutation rows."""
    idx = ball_indices(space, x, r / 2.0)
    return float(space.dist[idx, rows[:, idx]].max(initial=0.0))


# === small subgroups ===

@dataclass(frozen=True)
class SubgroupProbe:
    found: bool
    inconclusive: bool
    epsilon: float
    subgroup: Subgroup | None = None
    sup_displacement: float = 0.0
    candidates: int = 0


def small_subgroup_probe(space: FiniteMMS, epsilon: float, compact=None,
                         budget: int = DEFAULT_GROUP_BUDGET, *,
                         maps: EnumerationResult) -> SubgroupProbe:
    """Look for a nontrivial subgroup whose elements all move the compact
    set ``compact`` (every cell by default) by less than ``epsilon``.

    Filters the isometries of ``maps`` to the small movers, closes each
    candidate, and returns the first closure that stays inside the
    filter.  An incomplete enumeration, or a candidate whose closure
    passed ``budget`` elements, makes a negative answer inconclusive.  A
    NaN, infinite or nonpositive ``epsilon``, a ``budget`` above
    ``MAX_GROUP_BUDGET``, an empty ``compact`` or an id outside the space
    raises.
    """
    require_positive("epsilon", epsilon)
    _check_group_budget(budget)
    compact = (np.arange(space.n) if compact is None else
               np.array([cell_id(space, i) for i in compact], dtype=np.intp))
    if not compact.size:
        raise ValueError("compact must hold at least one cell")

    def sup_move(rows):
        return space.dist[compact, rows[:, compact]].max(axis=1)

    rows = maps.perms().reshape(len(maps.maps), space.n)
    nontrivial = np.any(rows != np.arange(space.n), axis=1)
    small = rows[nontrivial & (sup_move(rows) < epsilon)]
    cut = False                  # some candidate's closure passed the budget
    for perm in small:
        sub = generate_subgroup(space, [perm], budget=budget)
        if not sub.closed:
            cut = True
            continue
        sup = float(sup_move(sub.elements).max())
        if sup < epsilon and len(sub) > 1:
            return SubgroupProbe(found=True, inconclusive=False,
                                 epsilon=epsilon, subgroup=sub,
                                 sup_displacement=sup,
                                 candidates=len(small))
    return SubgroupProbe(found=False, inconclusive=cut or not maps.complete,
                         epsilon=epsilon, candidates=len(small))


# === Euclidean power escape ===

@dataclass(frozen=True)
class EuclideanIsometry:
    """Rigid motion y -> Q y + v of R^k."""

    q: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        q = np.atleast_2d(np.asarray(self.q, dtype=float))
        v = np.atleast_1d(np.asarray(self.v, dtype=float))
        if q.shape[0] != q.shape[1] or q.shape[0] != v.shape[0]:
            raise ValueError("shape mismatch between Q and v")
        if np.max(np.abs(q.T @ q - np.eye(q.shape[0]))) > 1e-12:
            raise ValueError("Q is not orthogonal")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "v", v)

    @property
    def k(self) -> int:
        return self.q.shape[0]

    def is_identity(self) -> bool:
        return (float(np.max(np.abs(self.q - np.eye(self.k)))) +
                float(np.linalg.norm(self.v))) <= 1e-12


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
    dead = float(np.sum(trans[~live] ** 2))
    if not live.any():
        return math.sqrt(dead)
    s, c = sig[live], trans[live]
    smax = float(np.max(s))
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
    return math.sqrt(float(np.sum((s * t + c) ** 2)) + lo * slack + dead)


def euclidean_power_escape(iso: EuclideanIsometry, threshold: float = 0.05,
                           max_pow: int = MAX_POWER) -> EscapeResult:
    """Smallest power n whose displacement on the closed ball of radius
    1/2 around the origin reaches ``threshold``.

    The displacement of g^n is evaluated in closed form from the
    spectral blocks of Q and the accumulated translation, so powers are
    scanned without iterating the map.  Cheap bounds locate the first
    candidate range; the exact supremum decides inside it.  ``max_pow``
    above ``MAX_POWER``, a dimension ``iso.k`` above ``MAX_MOTION_DIM`` or
    a NaN, infinite or nonpositive ``threshold`` raises.
    """
    require_positive("threshold", threshold)
    if max_pow > MAX_POWER:
        raise ValueError(f"max_pow must be at most {MAX_POWER}, got {max_pow}")
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

    The condition holds when the gap is strictly positive.  With no
    nontrivial isometries the supremum is vacuous and reported as zero,
    the strongest possible verdict.  ``s`` and ``fix_tol`` must be finite
    and nonnegative.
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
        holds=bool(gap > 0.0),
        vacuous=len(rows) == 0,
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


def critical_scale(space: FiniteMMS, group, x: int, lo: float, hi: float,
                   tol: float = 1e-6) -> CriticalScale:
    """Bracket the radius where the displacement functional crosses
    r/20, by bisection from a bracketing pair.

    Requires displacement at ``lo`` to sit at or above lo/20 and at
    ``hi`` strictly below hi/20; the functional is a step function of r,
    so the result is a bracket of width ``tol`` and the defect achieved
    at its left end.  ``lo`` and ``hi`` must be finite and nonnegative
    and ``tol`` positive; a ``tol`` below the spacing of floats near the
    crossing ends at a bracket of two adjacent floats.
    """
    require_nonnegative("lo", lo)
    require_nonnegative("hi", hi)
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    perms = _perm_rows(space, group)
    d_lo = _displacement(space, perms, lo, x)
    d_hi = _displacement(space, perms, hi, x)
    if d_lo < lo / 20.0 or d_hi >= hi / 20.0:
        raise ValueError("no crossing inside the bracket")
    # lo and hi passed the radius check; bisection stays between them
    a, b = lo, hi
    while b - a > tol:
        mid = (a + b) / 2.0
        if not a < mid < b:     # adjacent floats: the midpoint stalls
            break
        if _displacement(space, perms, mid, x) >= mid / 20.0:
            a = mid
        else:
            b = mid
    d = _displacement(space, perms, a, x)
    return CriticalScale(r=a, bracket=(a, b), displacement=d,
                         defect=abs(d - a / 20.0))
