"""Isometry enumeration, fixed sets, displacement, and power escape."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmslab import (
    EnumerationResult,
    EuclideanIsometry,
    FiniteMMS,
    IsometryMap,
    NecklaceParams,
    circle_space,
    compose,
    condition_a_scan,
    critical_scale,
    displacement,
    enumerate_isometries,
    euclidean_ball_grid,
    euclidean_power_escape,
    fixed_set,
    generate_subgroup,
    hawaiian_truncation,
    invert,
    isometry_from_perm,
    large_fix_implies_small_displacement,
    necklace,
    segment_space,
    small_subgroup_probe,
)
from mmslab import symmetry
from mmslab.symmetry import (DEFAULT_NODE_BUDGET, MAX_LISTED, MAX_POWER,
                             _block_data, _profile_pairs, _sup_on_half_ball)

TAU = 2 * math.pi


def cloud_space(points, weights=None):
    pts = np.asarray(points, dtype=float)
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    w = np.ones(len(pts)) if weights is None else np.asarray(weights, dtype=float)
    return FiniteMMS(dist=dist, weight=w, coords=pts)


def brute_isometries(space, tol):
    """Reference enumeration by scanning every permutation."""
    out = []
    for p in itertools.permutations(range(space.n)):
        pa = np.asarray(p)
        if np.max(np.abs(space.dist[np.ix_(pa, pa)] - space.dist)) <= tol:
            out.append(p)
    return sorted(out)


@st.composite
def tied_spaces(draw):
    """3 to 6 cells, each distance 1 or 2: many ties, many maps."""
    n = draw(st.integers(3, 6))
    m = n * (n - 1) // 2
    dist = np.zeros((n, n))
    rows, cols = np.triu_indices(n, 1)
    dist[rows, cols] = dist[cols, rows] = draw(
        st.lists(st.sampled_from([1.0, 2.0]), min_size=m, max_size=m))
    return FiniteMMS(dist=dist, weight=np.ones(n))


def circle_reflection(space, k):
    """Reflection of circle k of a wedge space about the base axis."""
    m = space.meta["cells_per_circle"]
    perm = list(range(space.n))
    for i in range(1 + k * (m - 1), 1 + (k + 1) * (m - 1)):
        j = i - 1 - k * (m - 1) + 1
        perm[i] = 1 + k * (m - 1) + (m - j - 1)
    return perm


def reflection_combinations(space):
    """Every product of per-circle reflections of a wedge space."""
    perms = [tuple(range(space.n))]
    for k in range(space.meta["circles"]):
        refl = circle_reflection(space, k)
        perms = perms + [tuple(refl[v] for v in p) for p in perms]
    return sorted(perms)


def rotation_perm(m, shift):
    return tuple((i + shift) % m for i in range(m))


def power_data(q, v, n):
    """Matrix power and accumulated translation of the n-th iterate."""
    qn = np.eye(len(v))
    c = np.zeros(len(v))
    for _ in range(n):
        c = c + qn @ v
        qn = qn @ q
    return qn, c


def fibonacci_sphere(count):
    i = np.arange(count) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / count)
    theta = math.pi * (1.0 + 5.0**0.5) * i
    return np.column_stack([np.sin(phi) * np.cos(theta),
                            np.sin(phi) * np.sin(theta),
                            np.cos(phi)])


def sampled_half_ball_sup(q, v, n, samples):
    qn, c = power_data(q, v, n)
    moved = samples @ (qn - np.eye(len(v))).T + c
    return float(np.max(np.linalg.norm(moved, axis=1)))


# === enumeration against brute force ===

def test_generic_cloud_admits_only_the_identity():
    rng = np.random.default_rng(7)
    sp = cloud_space(rng.standard_normal((6, 3)))
    res = enumerate_isometries(sp, iso_tol=1e-9)
    assert res.complete
    assert np.array_equal(res.perms(), [np.arange(6)])
    assert np.array_equal(res.perms(), brute_isometries(sp, 1e-9))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(sp=tied_spaces(), tol=st.sampled_from([1e-9, 1.0]))
def test_enumeration_matches_brute_force_on_tied_matrices(sp, tol):
    # at tol 1 every permutation is a map, of distortion 0 or 1: the
    # distortion the search takes from its path must be the full one
    res = enumerate_isometries(sp, tol)
    assert res.complete
    assert np.array_equal(res.perms(), brute_isometries(sp, tol))
    for m in res.maps:
        assert m.distortion == isometry_from_perm(sp, m.perm).distortion


def test_circle_enumeration_matches_brute_force():
    sp = circle_space(1.0, 6)
    res = enumerate_isometries(sp, iso_tol=1e-9)
    assert res.complete
    assert len(res.maps) == 12
    assert np.array_equal(res.perms(), brute_isometries(sp, 1e-9))
    for m in res.maps:
        assert m.distortion <= 1e-9
        assert m.is_measure_preserving()


def test_default_tolerance_finds_the_dihedral_group():
    # two pitches, the old default, admitted 19,335 maps here
    sp = circle_space(1.0, 24)
    res = enumerate_isometries(sp)
    ref = enumerate_isometries(sp, iso_tol=1e-9)
    assert np.array_equal(res.perms(), ref.perms())
    assert (res.nodes, res.complete) == (ref.nodes, ref.complete)
    assert res.complete and len(res.maps) == 48


@pytest.mark.parametrize("iso_tol", [math.nan, -1.0, -1e-300])
def test_enumeration_rejects_a_nan_or_negative_tolerance(iso_tol):
    # each used to report a complete enumeration with no maps at all
    with pytest.raises(ValueError, match="iso_tol"):
        enumerate_isometries(circle_space(1.0, 8), iso_tol=iso_tol)


def test_enumeration_output_is_a_sorted_group():
    sp = circle_space(1.0, 8)
    res = enumerate_isometries(sp, iso_tol=1e-9)
    perms = set(map(tuple, res.perms()))
    assert len(perms) == 16
    assert tuple(range(8)) in perms
    assert np.array_equal(res.perms(), sorted(perms))
    for a in perms:
        assert tuple(invert(a)) in perms
        for b in perms:
            assert tuple(compose(a, b)) in perms
    assert res.nodes > 0


def test_wedge_maps_are_reflection_combinations():
    sp = hawaiian_truncation(3, 8)
    res = enumerate_isometries(sp, iso_tol=1e-9)
    assert res.complete
    assert np.array_equal(res.perms(), reflection_combinations(sp))
    assert len(res.maps) == 8


def test_node_budget_exhaustion_is_flagged():
    # the chain spends 5 nodes on this circle: 2 base cells, 3 searches
    sp = circle_space(1.0, 10)
    res = enumerate_isometries(sp, iso_tol=1e-9, budget=2)
    assert not res.complete
    assert res.order is None
    assert len(res.maps) < 20


def test_weight_defects_are_reported_not_filtered():
    sp = cloud_space([[0.0, 0.0], [1.0, 0.0]], weights=[0.3, 0.7])
    res = enumerate_isometries(sp, iso_tol=1e-9)
    by_perm = {tuple(m.perm): m for m in res.maps}
    assert set(by_perm) == {(0, 1), (1, 0)}
    assert by_perm[(0, 1)].is_measure_preserving()
    swap = by_perm[(1, 0)]
    assert not swap.is_measure_preserving()
    assert abs(swap.measure_defect - 0.4) <= 1e-15


def test_isometry_from_perm_rejects_non_permutations():
    sp = cloud_space([[0.0], [1.0], [3.0]])
    with pytest.raises(ValueError):
        isometry_from_perm(sp, [0, 0, 1])


@pytest.mark.parametrize("bad", [[0] * 6, [0, 1, 2, 3, 4, 6], [0, 1, 2],
                                 [[0, 1, 2, 3, 4, 5], [0, 0, 0, 0, 0, 0]]])
def test_non_permutations_are_rejected(bad):
    sp = circle_space(1.0, 6)
    rows = np.atleast_2d(bad)
    with pytest.raises(ValueError, match="not a permutation"):
        generate_subgroup(sp, rows)
    with pytest.raises(ValueError, match="not a permutation"):
        displacement(sp, rows, 1.0, 0)
    with pytest.raises(ValueError, match="not a permutation"):
        critical_scale(sp, rows, x=0, lo=0.8, hi=63.0)
    with pytest.raises(ValueError, match="not a permutation"):
        fixed_set(sp, rows[-1])
    with pytest.raises(ValueError, match="not a permutation"):
        large_fix_implies_small_displacement(sp, rows[-1], x=0, n_scale=1)


@pytest.mark.parametrize("bad", [[0.9, 1.2, 2.7, 3.1, 4.5, 5.99],
                                 [0, 1, 2, 3, 4, 5.5],
                                 [0, 1, 2, 3, 4, math.nan],
                                 [0, 1, 2, 3, 4, math.inf],
                                 [True, False, True, True, True, True],
                                 ["0", "1", "2", "3", "4", "5"]])
def test_permutations_of_no_whole_numbers_are_rejected(bad):
    # the first was truncated to the identity, at distortion 0
    sp = circle_space(1.0, 6)
    with pytest.raises(ValueError, match="not a permutation"):
        isometry_from_perm(sp, bad)
    with pytest.raises(ValueError, match="not a permutation"):
        generate_subgroup(sp, [bad])


def test_whole_floats_are_a_permutation():
    sp = circle_space(1.0, 6)
    perm = [1, 2, 3, 4, 5, 0]
    m = isometry_from_perm(sp, [float(v) for v in perm])
    assert m.perm.dtype == np.intp and m.perm.tolist() == perm
    assert m.distortion == isometry_from_perm(sp, perm).distortion


def test_isometry_maps_hold_read_only_arrays():
    sp = circle_space(1.0, 6)
    m = isometry_from_perm(sp, [1, 2, 3, 4, 5, 0])
    assert m.perm.dtype.kind == "i" and not m.perm.flags.writeable
    res = enumerate_isometries(sp, iso_tol=1e-9)
    assert res.perms().shape == (12, 6)
    assert displacement(sp, res.perms()[:0], 1.0, 0) == 0.0


def test_compose_and_invert_round_trip():
    rng = np.random.default_rng(11)
    p = tuple(int(v) for v in rng.permutation(9))
    identity = tuple(range(9))
    assert np.array_equal(compose(p, invert(p)), identity)
    assert np.array_equal(compose(invert(p), p), identity)
    assert np.array_equal(invert(invert(p)), p)


def test_ball_grid_symmetries_are_the_dihedral_eight():
    sp = euclidean_ball_grid(2, 0.2, 0.1)
    res = enumerate_isometries(sp, iso_tol=1e-9)
    assert res.complete
    assert len(res.maps) == 8
    pts = sp.coords
    expected = set()
    for sx, sy in itertools.product((1, -1), repeat=2):
        for swap in (False, True):
            img = pts[:, ::-1] if swap else pts
            img = img * np.array([sx, sy])
            perm = []
            for row in img:
                hits = np.flatnonzero(np.all(np.abs(pts - row) < 1e-12, axis=1))
                perm.append(int(hits[0]))
            expected.add(tuple(perm))
    assert set(map(tuple, res.perms())) == expected


# === the chain search against the per-node search ===

def candidate_oracle(dist, iso_tol):
    """Candidate pairs (src, dst) and their row deviations by the plain
    per-row check."""
    profiles = np.sort(dist, axis=1)
    dev = np.array([np.max(np.abs(profiles - profiles[i]), axis=1)
                    for i in range(len(dist))])
    src, dst = np.nonzero(dev <= iso_tol)
    return src, dst, dev[src, dst]


def enumeration_oracle(space, iso_tol, budget=DEFAULT_NODE_BUDGET):
    """Every map, one by one: the per-row prefilter, a depth-first
    search with one distance check per node, and each map's distortion
    from the full ``np.ix_`` gather."""
    n = space.n
    dist = space.dist
    profiles = np.sort(dist, axis=1)
    cand = [np.flatnonzero(np.max(np.abs(profiles - profiles[i]), axis=1)
                           <= iso_tol) for i in range(n)]
    order = sorted(range(n), key=lambda i: (len(cand[i]), i))
    src_so_far = np.asarray(order)

    perm = np.full(n, -1, dtype=int)
    used = np.zeros(n, dtype=bool)
    found = []
    nodes = 0
    complete = True
    iters = [iter(cand[order[0]])]
    while iters:
        depth = len(iters) - 1
        i = order[depth]
        j = next(iters[-1], None)
        if j is None:
            iters.pop()
            if depth > 0:
                prev = order[depth - 1]
                used[perm[prev]] = False
                perm[prev] = -1
            continue
        if used[j]:
            continue
        nodes += 1
        if nodes > budget:
            complete = False
            break
        if depth:
            asrc = src_so_far[:depth]
            if np.max(np.abs(dist[i, asrc] - dist[j, perm[asrc]])) > iso_tol:
                continue
        if depth == n - 1:
            perm[i] = j
            found.append(perm.copy())
            perm[i] = -1
            continue
        perm[i] = j
        used[j] = True
        iters.append(iter(cand[order[depth + 1]]))

    rows = np.unique(np.array(found, dtype=np.intp).reshape(-1, n), axis=0)
    maps = tuple(IsometryMap(
        perm=p,
        distortion=float(np.max(np.abs(dist[np.ix_(p, p)] - dist))),
        measure_defect=float(np.max(np.abs(space.weight[p] - space.weight))))
        for p in rows)
    return EnumerationResult(maps=maps, complete=complete, nodes=nodes,
                             generators=rows)


def relabelled(space, seed):
    labels = np.random.default_rng(seed).permutation(space.n)
    return FiniteMMS(dist=space.dist[np.ix_(labels, labels)],
                     weight=space.weight[labels],
                     meta={"pitch": space.pitch()})


def nudged(space, i, j, value):
    """The space with the entries (i, j) and (j, i) of its matrix set to
    ``value``."""
    dist = space.dist.copy()
    dist[i, j] = dist[j, i] = value
    return FiniteMMS(dist=dist, weight=space.weight, meta=space.meta)


def off_by_one_ulp():
    # one distance one ulp longer than on the circle, in both orders
    sp = relabelled(circle_space(1.0, 16), 8)
    return nudged(sp, 3, 11, np.nextafter(sp.dist[3, 11], np.inf))


def signed_zero_diagonal():
    # a signed zero on the diagonal, which the exact check lets through
    return nudged(relabelled(circle_space(1.0, 16), 9), 5, 5, -0.0)


@pytest.mark.parametrize("entry, message", [
    ((3, 11), r"symmetric: dist\[3, 11\]"),
    ((11, 3), r"symmetric: dist\[3, 11\]"),
    ((5, 5), r"zero diagonal: dist\[5, 5\] = 5e-324"),
])
def test_matrices_off_the_contract_are_rejected(entry, message):
    # the search compares each pair of cells in one order only, so one
    # entry one ulp off, above its transpose or above zero on the
    # diagonal, must stop at construction rather than score maps
    sp = relabelled(circle_space(1.0, 16), 8)
    dist = sp.dist.copy()
    dist[entry] = np.nextafter(dist[entry], np.inf)
    with pytest.raises(ValueError, match=message):
        FiniteMMS(dist=dist, weight=sp.weight, meta=sp.meta)


def torus(k, seed):
    """A relabelled k x k grid on the flat torus, with the sum metric."""
    c = circle_space(1.0, k).dist
    dist = (c[:, None, :, None] + c[None, :, None, :]).reshape(k * k, k * k)
    return relabelled(FiniteMMS(dist=dist, weight=np.ones(k * k),
                                meta={"pitch": TAU / k}), seed)


ORACLE_SPACES = {
    "circle-16": lambda: relabelled(circle_space(1.0, 16), 1),
    "circle-ulp": off_by_one_ulp,
    "circle-diagonal": signed_zero_diagonal,
    "earring-3-16": lambda: relabelled(hawaiian_truncation(3, 16), 2),
    "earring-4-24": lambda: relabelled(hawaiian_truncation(4, 24), 3),
    "ball-2-4": lambda: relabelled(euclidean_ball_grid(2, 1.0, 1 / 4), 4),
    "ball-3-3": lambda: relabelled(euclidean_ball_grid(3, 1.0, 1 / 3), 5),
    "cloud": lambda: cloud_space(np.random.default_rng(3).standard_normal((9, 3))),
    "necklace": lambda: necklace(NecklaceParams(beads=((0.6, 0.5),),
                                                resolution=0.05)),
    # 512 maps; the oracle takes 1,995,520 of its 2,000,000 nodes
    "torus-8-3": lambda: torus(8, 3),
}
BOUNDED = 3000      # node budget of the searches at two pitches


def assert_same_enumeration(res, ref):
    assert res.complete == ref.complete
    assert np.array_equal(res.perms(), ref.perms())
    assert res.perms().dtype == ref.perms().dtype
    for m, r in zip(res.maps, ref.maps):
        assert m.distortion == r.distortion
        assert m.measure_defect == r.measure_defect


def assert_listed_maps_are_isometries(sp, res, tol):
    assert all(m.distortion <= tol for m in res.maps)
    # the full gather again on at most 512 maps: 9! are listed at times
    for m in res.maps[::max(1, len(res.maps) // 512)]:
        assert m.distortion == isometry_from_perm(sp, m.perm).distortion
        assert not m.perm.flags.writeable


@pytest.mark.parametrize("pitches", [0, 2, math.inf])
@pytest.mark.parametrize("name", ORACLE_SPACES)
def test_profile_candidates_match_the_per_row_check(name, pitches):
    # the same pairs in the same order, and the same deviations bit for bit
    sp = ORACLE_SPACES[name]()
    tol = pitches * sp.pitch() or 1e-9
    got = _profile_pairs(sp.dist, tol)
    want = candidate_oracle(sp.dist, tol)
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_profile_window_keeps_a_pair_at_the_rounding_edge():
    # |a - b| rounds to at most t, yet b lies below a - t as rounded, so
    # a window on [a - t, a + t] without a margin would drop the pair
    a, b, t = 1.0592123670732445, 0.42605242103668667, 0.6331599460365578
    assert abs(a - b) <= t and b < a - t
    dist = np.array([[0.0, a], [b, 0.0]])
    for src, dst, _ in (_profile_pairs(dist, t), candidate_oracle(dist, t)):
        assert (src.tolist(), dst.tolist()) == ([0, 0, 1, 1], [0, 1, 0, 1])


@pytest.mark.parametrize("pitches", [0, 2])
@pytest.mark.parametrize("name", ORACLE_SPACES)
def test_level_search_matches_the_per_node_oracle(name, pitches, monkeypatch):
    # at the rounding scale every map set, distortion and defect is the
    # oracle's.  At two pitches the tolerance sits in no gap on most of
    # these spaces: the chain then says so within its budget, and lists
    # only maps within the tolerance
    sp = ORACLE_SPACES[name]()
    if not pitches:
        res = enumerate_isometries(sp, 1e-9)
        assert res.complete and res.order == len(res.maps)
        assert_same_enumeration(res, enumeration_oracle(sp, 1e-9))
        return
    tol = pitches * sp.pitch()
    if name == "cloud":
        # every one of the 9! permutations is within two pitches: the
        # chain certifies them, lists none, and lists them all under a
        # ceiling raised to 9!
        res = enumerate_isometries(sp, tol, BOUNDED)
        assert res.order == math.factorial(9) > MAX_LISTED
        assert res.maps == () and not res.complete
        monkeypatch.setattr(symmetry, "MAX_LISTED", math.factorial(9))
    res = enumerate_isometries(sp, tol, BOUNDED)
    assert res.nodes <= BOUNDED + 1
    assert_listed_maps_are_isometries(sp, res, tol)
    if res.complete:
        # every map the oracle reaches within its budget, all if it ends
        ref = enumeration_oracle(sp, tol, BOUNDED)
        if ref.complete:
            assert_same_enumeration(res, ref)
        listed = set(map(tuple, res.perms()))
        assert ref.maps and all(tuple(r.perm) in listed for r in ref.maps)


@pytest.mark.parametrize("pitches", [0, 2])
@pytest.mark.parametrize("name", ["circle-16", "earring-4-24", "ball-2-4",
                                  "necklace"])
def test_budget_cuts_match_the_oracle(name, pitches):
    # a cut chain lists the products of the maps it found so far: all of
    # them isometries, and at the rounding scale all of them the oracle's
    sp = ORACLE_SPACES[name]()
    tol = pitches * sp.pitch() or 1e-9
    full = enumerate_isometries(sp, tol, BOUNDED)
    oracle = {tuple(m.perm): m.distortion for m in
              enumeration_oracle(sp, tol).maps} if not pitches else None
    cuts = {-1, 0, 1, 7, full.nodes // 3, full.nodes - 1}
    for budget in sorted(b for b in cuts if b < full.nodes):
        res = enumerate_isometries(sp, tol, budget)
        assert not res.complete and res.order is None
        assert res.nodes == max(budget, 0) + 1
        assert_listed_maps_are_isometries(sp, res, tol)
        if oracle is not None:
            assert all(oracle[tuple(m.perm)] == m.distortion
                       for m in res.maps)
    again = enumerate_isometries(sp, tol, full.nodes)
    assert_same_enumeration(again, full)
    assert (again.nodes, again.order) == (full.nodes, full.order)


def planted_near_tie():
    """A relabelled circle with one edge stretched by 1.5 tolerances: a
    rotation that moves that edge has distortion above the tolerance
    but within twice it, so the tolerance sits in no gap."""
    sp = relabelled(circle_space(1.0, 12), 10)
    stretched = sp.dist.copy()
    i, j = np.argwhere(np.isclose(sp.dist, sp.pitch()))[0]
    stretched[i, j] = stretched[j, i] = sp.dist[i, j] + 1.5e-9
    return FiniteMMS(dist=stretched, weight=sp.weight, meta=sp.meta)


def test_a_planted_near_tie_leaves_the_chain_incomplete():
    sp = planted_near_tie()
    res = enumerate_isometries(sp, 1e-9)
    assert not res.complete and res.order is None
    assert_listed_maps_are_isometries(sp, res, 1e-9)
    ref = enumeration_oracle(sp, 1e-9)
    assert set(map(tuple, res.perms())) <= set(map(tuple, ref.perms()))
    # at 2e-9 the stretch is within the tolerance, which sits in a gap
    wide = enumerate_isometries(sp, 2e-9)
    assert wide.complete
    assert_same_enumeration(wide, enumeration_oracle(sp, 2e-9))


def test_a_listed_product_above_the_tolerance_uncertifies_the_order():
    """Two flips of a jittered earring(2, 8) are found within ``iso_tol``,
    and so is each stored map, but their product is 2.166e-6 off: the
    listing drops it, so the order 4 of the chain is not certified."""
    sp = hawaiian_truncation(2, 8)
    jitter = np.random.default_rng(0).normal(0, 1e-6, (15, 15))
    dist = sp.dist + (jitter + jitter.T) / 2
    np.fill_diagonal(dist, 0.0)
    res = enumerate_isometries(FiniteMMS(dist=dist, weight=sp.weight),
                               iso_tol=2.0627e-6)
    assert res.orbit_sizes == (2, 2) and len(res.maps) == 3
    assert res.order is None and not res.complete
    assert all(m.distortion <= 2.0627e-6 for m in res.maps)


@pytest.mark.parametrize("space, order", [
    (lambda: hawaiian_truncation(60, 8), 2 ** 60),
    (lambda: necklace(NecklaceParams(beads=((0.4, 0.3), (1.0, 0.3)),
                                     resolution=math.pi / 300)), 2 ** 29)],
    ids=["earring-60-8", "two-bead-necklace"])
def test_the_chain_certifies_orders_too_large_to_list(space, order):
    sp = space()
    res = enumerate_isometries(sp)
    assert res.order == order
    assert math.prod(res.orbit_sizes) == order
    assert len(res.base) == len(res.orbit_sizes) == order.bit_length() - 1
    # above the listing ceiling nothing is listed, so maps is not complete
    assert res.maps == () and not res.complete


def test_a_group_above_the_listing_ceiling_is_counted_in_little_memory():
    """Every permutation of a nine-point equidistant space is an
    isometry.  Listing all 9! = 362,880 of them took 1.1 s and a 129 MiB
    tracemalloc peak; the chain counts them."""
    sp = FiniteMMS(dist=1.0 - np.eye(9), weight=np.ones(9))
    tracemalloc.start()
    try:
        res = enumerate_isometries(sp, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.order == math.factorial(9) > MAX_LISTED
    assert res.maps == () and not res.complete
    assert peak < 8 << 20


CHAIN_SPACES = {
    "circle-24": lambda: relabelled(circle_space(1.0, 24), 6),
    "earring-5-24": lambda: relabelled(hawaiian_truncation(5, 24), 7),
    "ball-3-3": ORACLE_SPACES["ball-3-3"],
}


@pytest.mark.parametrize("name", ["earring-8-64", *CHAIN_SPACES])
def test_search_distortion_equals_the_full_gather(name):
    # each listed map carries the distortion of the full n^2 gather
    sp = (hawaiian_truncation(8, 64) if name == "earring-8-64"
          else CHAIN_SPACES[name]())
    res = enumerate_isometries(sp, 1e-9)
    assert res.complete and res.maps
    assert_listed_maps_are_isometries(sp, res, 1e-9)


# === fixed sets ===

def test_fixed_set_of_a_circle_reflection():
    sp = hawaiian_truncation(2, 12)
    m = 12
    lengths = [TAU, TAU / 4]
    refl = circle_reflection(sp, 1)
    fs = fixed_set(sp, refl, fix_tol=1e-9)
    expected = sp.total_mass - lengths[1] * (m - 2) / m
    assert abs(fs.mass - expected) <= 1e-12
    moved = [i for i in range(sp.n) if i not in set(fs.indices)]
    assert len(moved) == m - 2
    assert abs(sp.weight[moved].sum() + fs.mass - sp.total_mass) <= 1e-12


def test_fixed_mass_tends_to_the_untouched_circles():
    for m in (12, 24, 48):
        sp = hawaiian_truncation(2, m)
        fs = fixed_set(sp, circle_reflection(sp, 1), fix_tol=1e-9)
        assert abs(fs.mass - TAU - math.pi / m) <= 1e-12
        assert fs.mass - TAU <= sp.pitch()


def test_fixed_set_reports_ball_masses():
    sp = hawaiian_truncation(2, 12)
    refl = circle_reflection(sp, 1)
    fs = fixed_set(sp, refl, fix_tol=1e-9, balls=[(0, 100.0), (0, 0.6)])
    assert abs(fs.ball_masses[0] - fs.mass) <= 1e-12
    perm = np.asarray(refl)
    expected = sum(
        sp.weight[i] for i in range(sp.n)
        if sp.dist[0, i] <= 0.6 and sp.dist[i, perm[i]] <= 1e-9)
    assert abs(fs.ball_masses[1] - expected) <= 1e-12


def test_fix_of_a_composition_contains_the_joint_fix():
    sp = hawaiian_truncation(2, 12)
    g = circle_reflection(sp, 0)
    h = circle_reflection(sp, 1)
    fg = set(fixed_set(sp, g, fix_tol=1e-9).indices)
    fh = set(fixed_set(sp, h, fix_tol=1e-9).indices)
    fgh = set(fixed_set(sp, compose(g, h), fix_tol=1e-9).indices)
    assert fgh >= (fg & fh)
    assert fgh == (fg & fh)


# === displacement ===

def displacement_oracle(space, rows, r, x):
    """``displacement`` as it was: the largest move of a listed row on
    the closed half-radius ball, over those rows only."""
    idx = np.flatnonzero(space.dist[x] <= r / 2.0)
    return float(space.dist[idx, np.asarray(rows)[:, idx]].max(initial=0.0))


@pytest.mark.parametrize("make", [
    lambda: segment_space(0.1),
    lambda: relabelled(circle_space(1.0, 24), 6),
    lambda: relabelled(hawaiian_truncation(4, 8), 7),
    lambda: relabelled(euclidean_ball_grid(2, 1.0, 1 / 4), 8),
    ORACLE_SPACES["necklace"]], ids=["segment", "circle", "earring", "ball",
                                     "necklace"])
def test_orbit_displacement_equals_the_max_over_the_listing(make):
    # over a group, {g(y)} is the orbit of y: the listing and the chain's
    # generators give the listing's maximum, to the bit
    sp = make()
    res = enumerate_isometries(sp)
    assert res.complete and res.generators.shape[1] == sp.n
    assert not res.generators.flags.writeable
    for r in (0.1, 0.5, 2.0):
        for x in (0, sp.n // 2):
            expect = displacement_oracle(sp, res.perms(), r, x)
            assert displacement(sp, res.perms(), r, x) == expect
            assert displacement(sp, res.generators, r, x) == expect


def test_displacement_values_on_the_wedge():
    sp = hawaiian_truncation(2, 12)
    group = enumerate_isometries(sp, iso_tol=1e-9).perms()
    assert displacement(sp, group, 0.2, 0) == 0.0
    assert abs(displacement(sp, group, 1.0, 0) - math.pi / 4) <= 1e-12
    assert abs(displacement(sp, group, 2.0, 0) - math.pi / 3) <= 1e-12
    assert abs(displacement(sp, group, 1e3, 0) - math.pi) <= 1e-12


def test_displacement_is_monotone():
    sp = hawaiian_truncation(2, 12)
    group = enumerate_isometries(sp, iso_tol=1e-9).perms()
    radii = [0.0, 0.4, 0.9, 1.7, 3.0, 8.0]
    vals = [displacement(sp, group, r, 0) for r in radii]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    sub = generate_subgroup(sp, [circle_reflection(sp, 1)])
    assert displacement(sp, sub.elements, 1e3, 0) <= displacement(sp, group, 1e3, 0)
    assert displacement(sp, [tuple(range(sp.n))], 1e3, 0) == 0.0
    with pytest.raises(ValueError):
        displacement(sp, group, -1.0, 0)


# === subgroup closure ===

def test_generated_subgroups_have_the_expected_orders():
    sp = hawaiian_truncation(2, 12)
    r0 = tuple(circle_reflection(sp, 0))
    r1 = tuple(circle_reflection(sp, 1))
    sub = generate_subgroup(sp, [r0])
    assert len(sub) == 2 and sub.closed
    assert r0 in sub and tuple(range(sp.n)) in sub and r1 not in sub
    both = generate_subgroup(sp, [r0, r1])
    assert len(both) == 4 and both.closed
    assert compose(r0, r1) in both


def test_a_closure_peaks_below_three_copies_of_its_elements():
    """Closing the 13 circle flips of earring(13, 8) into its 8,192
    elements peaked at 4.3x their bytes when each element was also joined
    into one buffer and copied twice more by np.unique."""
    sp = hawaiian_truncation(13, 8)
    gens = [circle_reflection(sp, k) for k in range(13)]
    tracemalloc.start()
    try:
        sub = generate_subgroup(sp, gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sub.closed and len(sub) == 1 << 13
    assert np.array_equal(sub.elements, np.unique(sub.elements, axis=0))
    assert peak <= 3 * sub.elements.nbytes


def test_generated_rotations_recover_the_cyclic_group(monkeypatch):
    sp = circle_space(1.0, 8)
    sub = generate_subgroup(sp, [rotation_perm(8, 1)])
    assert sub.closed
    assert set(map(tuple, sub.elements)) == {rotation_perm(8, s) for s in range(8)}
    monkeypatch.setattr(symmetry, "MAX_LISTED", 3)
    truncated = generate_subgroup(sp, [rotation_perm(8, 1)])
    assert not truncated.closed and len(truncated) > 3


# === small subgroup probe ===

def test_probe_finds_the_smallest_circle_reflection():
    sp = hawaiian_truncation(3, 12)
    probe = small_subgroup_probe(sp, epsilon=TAU / 9,
                                 maps=enumerate_isometries(sp))
    assert probe.found and not probe.inconclusive
    assert probe.candidates == 1
    assert len(probe.subgroup) == 2
    assert tuple(circle_reflection(sp, 2)) in probe.subgroup
    assert abs(probe.sup_displacement - math.pi / 9) <= 1e-12


def test_probe_reports_nothing_when_everything_moves():
    sp = euclidean_ball_grid(2, 0.2, 0.1)
    probe = small_subgroup_probe(sp, epsilon=0.002,
                                 maps=enumerate_isometries(sp))
    assert not probe.found
    assert not probe.inconclusive
    assert probe.candidates == 0


def test_probe_is_inconclusive_after_a_truncated_enumeration():
    sp = hawaiian_truncation(2, 12)
    identity = isometry_from_perm(sp, list(range(sp.n)))
    partial = EnumerationResult(maps=(identity,), complete=False, nodes=1,
                                generators=np.empty((0, sp.n), np.intp))
    probe = small_subgroup_probe(sp, epsilon=0.1, maps=partial)
    assert not probe.found
    assert probe.inconclusive


def test_probe_is_inconclusive_when_the_budget_cuts_a_closure(monkeypatch):
    # the swap of the two close cells is a small mover of order 2; a
    # listing ceiling of one element once cut its closure and read as
    # "none", but the probe scores <swap> by its cycles and closes only
    # the witness, which the ceiling leaves open
    dist = np.array([[0.0, 0.01, 1.0], [0.01, 0.0, 1.0], [1.0, 1.0, 0.0]])
    sp = FiniteMMS(dist=dist, weight=np.ones(3))
    maps = enumerate_isometries(sp)
    for ceiling in (MAX_LISTED, 2, 1):
        monkeypatch.setattr(symmetry, "MAX_LISTED", ceiling)
        probe = small_subgroup_probe(sp, epsilon=0.1, maps=maps)
        assert probe.found and not probe.inconclusive
        assert probe.candidates == 1
        assert probe.sup_displacement == 0.01
        assert probe.subgroup.closed == (ceiling > 1)
        assert [0, 1, 2] in probe.subgroup and [1, 0, 2] in probe.subgroup


def test_probe_scores_each_candidate_as_its_closure_did():
    # oracle: close every nontrivial listed map and take the largest move
    # of its elements on the compact cells
    for sp, eps, compact in ((hawaiian_truncation(3, 12), TAU / 9, None),
                             (hawaiian_truncation(4, 8), 0.9, [0, 3, 9]),
                             (circle_space(1.0, 12), 1.0, None),
                             (euclidean_ball_grid(2, 1.0, 1 / 4), 0.6, [0])):
        maps = enumerate_isometries(sp)
        cells = np.arange(sp.n) if compact is None else np.array(compact)
        witness = None
        for perm in maps.perms()[1:]:           # the identity sorts first
            sub = generate_subgroup(sp, [perm])
            sup = sp.dist[cells, sub.elements[:, cells]].max()
            moves = sp.dist[cells, perm[cells]].max()
            if moves < eps and sup < eps:
                witness = (sub, sup)
                break
        probe = small_subgroup_probe(sp, eps, compact=compact, maps=maps)
        assert probe.found == (witness is not None)
        if witness is not None:
            assert np.array_equal(probe.subgroup.elements, witness[0].elements)
            assert probe.sup_displacement == witness[1]


def test_probe_respects_the_compact_set():
    sp = hawaiian_truncation(2, 12)
    probe = small_subgroup_probe(sp, epsilon=1e-6, compact=[0],
                                 maps=enumerate_isometries(sp))
    assert probe.found
    assert probe.sup_displacement == 0.0


# === Euclidean power escape ===

def test_half_turn_escapes_immediately():
    g = EuclideanIsometry(q=[[-1.0, 0.0], [0.0, -1.0]], v=[0.0, 0.0])
    res = euclidean_power_escape(g)
    assert res.found and res.n == 1
    assert abs(res.displacement - 1.0) <= 1e-12


def test_slow_rotation_needs_a_hundred_and_one_turns():
    a = 0.001
    g = EuclideanIsometry(q=[[math.cos(a), -math.sin(a)],
                             [math.sin(a), math.cos(a)]], v=[0.0, 0.0])
    res = euclidean_power_escape(g)
    assert res.found and res.n == 101
    assert abs(res.displacement - math.sin(101 * a / 2)) <= 1e-12
    assert math.sin(100 * a / 2) < res.threshold


def test_small_translation_needs_fifty_steps():
    g = EuclideanIsometry(q=np.eye(2), v=[1e-3, 0.0])
    res = euclidean_power_escape(g)
    assert res.found and res.n == 50
    assert abs(res.displacement - 0.05) <= 1e-12


def test_identity_never_escapes():
    g = EuclideanIsometry(q=np.eye(2), v=[0.0, 0.0])
    with pytest.raises(ValueError):
        euclidean_power_escape(g)


def test_powers_above_the_ceiling_raise_before_the_scan():
    g = EuclideanIsometry(q=np.eye(2), v=[1e-6, 0.0])
    assert euclidean_power_escape(g, max_pow=MAX_POWER).max_pow == MAX_POWER
    with pytest.raises(ValueError, match=f"^max_pow .* got {MAX_POWER + 1}$"):
        euclidean_power_escape(g, max_pow=MAX_POWER + 1)


@pytest.mark.parametrize("q, v", [([[math.nan, 0.0], [0.0, 1.0]], [1e-3, 0.0]),
                                  (np.eye(2), [math.inf, 0.0])])
def test_a_motion_with_a_non_finite_entry_is_rejected(q, v):
    # a NaN passed the orthogonality check, and an infinite shift warned
    with pytest.raises(ValueError, match="must be finite"):
        EuclideanIsometry(q=q, v=v)


def test_line_flip_with_offset():
    g = EuclideanIsometry(q=[[-1.0]], v=[0.3])
    res = euclidean_power_escape(g)
    assert res.found and res.n == 1
    assert abs(res.displacement - 1.3) <= 1e-9


def test_screw_motion_crossing():
    a, step = 0.01, math.hypot(2e-4, 1e-4)
    g = EuclideanIsometry(q=[[math.cos(a), -math.sin(a)],
                             [math.sin(a), math.cos(a)]], v=[2e-4, 1e-4])
    res = euclidean_power_escape(g)
    assert res.found and res.n == 10
    expected = math.sin(10 * a / 2) + step * math.sin(10 * a / 2) / math.sin(a / 2)
    assert abs(res.displacement - expected) <= 1e-9


def test_rotation_with_axial_drift():
    a = 0.002
    q = np.eye(3)
    q[:2, :2] = [[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]]
    g = EuclideanIsometry(q=q, v=[0.0, 0.0, 3e-4])
    res = euclidean_power_escape(g)
    assert res.found and res.n == 48

    def closed_form(n):
        return math.hypot(math.sin(n * a / 2), 3e-4 * n)

    assert abs(res.displacement - closed_form(48)) <= 1e-9
    assert closed_form(47) < res.threshold


def test_escape_displacement_matches_a_sampled_supremum():
    a = 0.5
    q = np.zeros((3, 3))
    q[:2, :2] = [[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]]
    q[2, 2] = -1.0
    v = np.array([0.01, 0.0, 0.2])
    g = EuclideanIsometry(q=q, v=v)
    res = euclidean_power_escape(g)
    assert res.found and res.n == 1
    pts = 0.5 * np.vstack([fibonacci_sphere(120_000), np.zeros(3)])
    sampled = sampled_half_ball_sup(q, v, 1, pts)
    assert sampled <= res.displacement + 1e-12
    assert res.displacement - sampled <= 5e-3


def escape_oracle(iso, threshold=0.05, max_pow=10_000_000):
    """``(found, n, displacement)`` of ``euclidean_power_escape`` as it
    was when the chunked bound spelled the block amplitudes inline and
    the exact check took them from a per-power scalar loop."""
    def amplitudes(blocks, n):
        sig, trans = [], []
        for kind, angle, vn in blocks:
            if kind == "rot":
                s = abs(2.0 * math.sin(n * angle / 2.0))
                c = vn * abs(math.sin(n * angle / 2.0) / math.sin(angle / 2.0))
            elif kind == "flip":
                s, c = 2.0 * (n % 2), vn * (n % 2)
            else:
                s, c = 0.0, vn * n
            sig.append(s)
            trans.append(c)
        return np.asarray(sig), np.asarray(trans)

    blocks = _block_data(iso)
    chunk, best_ub, best_n, start = 4096, -1.0, 1, 1
    while start <= max_pow:
        ns = np.arange(start, min(start + chunk - 1, max_pow) + 1, dtype=float)
        terms = []
        for kind, angle, vn in blocks:
            if kind == "rot":
                amp = np.abs(2.0 * np.sin(ns * angle / 2.0))
                tr = vn * amp / (2.0 * math.sin(angle / 2.0))
            elif kind == "flip":
                amp, tr = 2.0 * (ns % 2), vn * (ns % 2)
            else:
                amp, tr = np.zeros_like(ns), vn * ns
            terms.append(amp / 2.0 + tr)
        ub = np.sqrt(np.sum(np.stack(terms) ** 2, axis=0))
        top = int(np.argmax(ub))
        if ub[top] > best_ub:
            best_ub, best_n = float(ub[top]), start + top
        hit = np.flatnonzero(ub >= threshold)
        if len(hit):
            n = start + int(hit[0])
            while n <= max_pow:
                sup = _sup_on_half_ball(*amplitudes(blocks, n))
                if sup >= threshold:
                    return True, n, float(sup)
                n += 1
            break
        start += chunk
        chunk = min(chunk * 8, 1_048_576)
    return False, 0, float(_sup_on_half_ball(*amplitudes(blocks, best_n)))


def random_motions(count, seed):
    """Seeded rigid motions of R^1 to R^4: slow and fast rotations, some
    composed with flips, with and without translation, each with a
    threshold between 1e-3 and 1 and a power cap."""
    from scipy.linalg import expm
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        k = int(rng.integers(1, 5))
        a = rng.standard_normal((k, k))
        q = expm(10.0 ** rng.uniform(-4, 0) * (a - a.T))
        if rng.random() < 0.3:
            q = q * rng.choice([-1.0, 1.0], size=k)
        v = (np.zeros(k) if rng.random() < 0.25
             else 10.0 ** rng.uniform(-5, -1) * rng.standard_normal(k))
        iso = EuclideanIsometry(q=q, v=v)
        if iso.is_identity():
            continue
        threshold = float(10.0 ** rng.uniform(-3, 0))
        max_pow = int(rng.choice([50, 5_000, 200_000]))
        out.append((iso, threshold, max_pow))
    return out


def test_escape_matches_the_inline_bound_oracle_bit_for_bit():
    found = 0
    for iso, threshold, max_pow in random_motions(300, seed=20):
        res = euclidean_power_escape(iso, threshold=threshold, max_pow=max_pow)
        expected = escape_oracle(iso, threshold=threshold, max_pow=max_pow)
        assert (res.found, res.n, res.displacement) == expected
        found += res.found
    assert 0 < found < 300          # both verdicts are exercised


def test_euclidean_isometry_validation():
    with pytest.raises(ValueError):
        EuclideanIsometry(q=[[1.0, 0.1], [0.0, 1.0]], v=[0.0, 0.0])
    with pytest.raises(ValueError):
        EuclideanIsometry(q=np.eye(2), v=[0.0, 0.0, 0.0])
    g = EuclideanIsometry(q=np.eye(2), v=[1.0, 0.0])
    assert g.k == 2
    assert not g.is_identity()


def test_escape_of_a_shift_near_the_float_range_stays_finite():
    # squaring these once overflowed: an "inf" norm and displacement
    for v, expect in (([1e300], 1e300), ([1e300, 1e300], math.sqrt(2) * 1e300),
                      ([1.7e308], 1.7e308)):
        g = EuclideanIsometry(q=np.eye(len(v)), v=v)
        assert not g.is_identity()
        res = euclidean_power_escape(g)
        assert res.found and res.n == 1
        assert res.displacement == pytest.approx(expect, rel=1e-15)


# === fixed mass against displacement ===

def test_condition_a_gap_on_the_wedge():
    sp = hawaiian_truncation(2, 12)
    rep = condition_a_scan(sp, x=0, s=10.0, fix_tol=1e-9,
                           maps=enumerate_isometries(sp))
    expected_gap = (TAU / 4) * (12 - 2) / 12
    assert rep.holds and not rep.vacuous and rep.complete
    assert rep.nontrivial == 3
    assert abs(rep.ball_mass - sp.total_mass) <= 1e-12
    assert abs(rep.gap - expected_gap) <= 1e-12
    assert abs(rep.normalized_gap - expected_gap / sp.total_mass) <= 1e-12


def test_condition_a_is_vacuous_without_symmetry():
    rng = np.random.default_rng(3)
    sp = cloud_space(rng.standard_normal((5, 3)))
    rep = condition_a_scan(sp, x=0, s=10.0, maps=enumerate_isometries(sp))
    assert rep.vacuous and rep.holds
    assert rep.nontrivial == 0
    assert rep.fix_sup == 0.0


def test_condition_a_is_not_vacuous_when_the_group_is_not_listed():
    # the chain certifies 2^30 maps and lists none: the scan sees no
    # nontrivial map, yet the supremum is not vacuous, and a gap of the
    # whole ball's mass does not make the condition hold (it used to)
    sp = hawaiian_truncation(30, 8)
    maps = enumerate_isometries(sp)
    assert maps.order == 2 ** 30 and maps.maps == ()
    rep = condition_a_scan(sp, x=0, s=10.0, fix_tol=1e-9, maps=maps)
    assert not rep.vacuous and not rep.complete
    assert rep.nontrivial == 0
    assert rep.gap == rep.ball_mass > 0 and not rep.holds


def test_large_fix_implication_is_exercised_on_the_small_circle():
    sp = hawaiian_truncation(3, 12)
    refl = circle_reflection(sp, 2)
    rep = large_fix_implies_small_displacement(sp, refl, x=0, n_scale=1,
                                               fix_tol=1e-9)
    big = [i for i in range(sp.n) if sp.dist[0, i] <= 1.0]
    small = min(
        sum(sp.weight[z] for z in big if sp.dist[y, z] <= 1.0) for y in big)
    assert abs(rep.min_small_ball - small) <= 1e-12
    assert rep.hypothesis_holds and rep.conclusion_holds and rep.ok
    assert rep.xi > 0.0
    assert abs(rep.displacement_sup - math.pi / 9) <= 1e-12
    assert abs(rep.bound - (2.0 + sp.pitch())) <= 1e-12


def test_large_fix_hypothesis_fails_for_the_big_circle():
    sp = hawaiian_truncation(3, 12)
    refl = circle_reflection(sp, 0)
    rep = large_fix_implies_small_displacement(sp, refl, x=0, n_scale=3,
                                               fix_tol=1e-9)
    big = [i for i in range(sp.n) if sp.dist[0, i] <= 3.0]
    small = min(
        sum(sp.weight[z] for z in big if sp.dist[y, z] <= 1.0 / 3) for y in big)
    assert abs(rep.min_small_ball - small) <= 1e-12
    assert abs(rep.moved_mass - 10 * math.pi / 6) <= 1e-12
    assert not rep.hypothesis_holds
    assert not rep.conclusion_holds
    assert rep.ok
    assert abs(rep.displacement_sup - math.pi) <= 1e-12


# === the critical displacement scale ===

def critical_scale_oracle(space, rows, x, lo, hi, tol):
    """``critical_scale`` as it was: a bisection on ``displacement_oracle``
    down to a bracket of width ``tol``, or of two adjacent floats."""
    a, b = lo, hi
    while b - a > tol:
        mid = (a + b) / 2.0
        if not a < mid < b:
            break
        if displacement_oracle(space, rows, mid, x) >= mid / 20.0:
            a = mid
        else:
            b = mid
    return a, b


def test_critical_scale_brackets_the_crossing():
    sp = hawaiian_truncation(3, 12)
    res = enumerate_isometries(sp, iso_tol=1e-9)
    for group in (res.perms(), res.generators):
        crit = critical_scale(sp, group, x=0, lo=0.8, hi=63.0)
        a, b = crit.bracket
        assert b == np.nextafter(a, np.inf) and crit.r == a
        assert displacement(sp, group, a, 0) >= a / 20
        assert displacement(sp, group, b, 0) < b / 20
        assert abs(crit.r - 20 * math.pi) <= 1e-12
        assert crit.displacement == math.pi
        assert crit.defect == abs(math.pi - a / 20)


def test_critical_scale_requires_a_true_bracket():
    sp = hawaiian_truncation(3, 12)
    group = enumerate_isometries(sp, iso_tol=1e-9).perms()
    with pytest.raises(ValueError):
        critical_scale(sp, group, x=0, lo=1e-6, hi=63.0)
    with pytest.raises(ValueError):
        critical_scale(sp, group, x=0, lo=0.8, hi=40.0)


def test_critical_scale_rejects_an_empty_group():
    # earring(30, 8)'s 2^30 maps are counted, not listed: its listing is
    # empty, and only the chain's generators stand for the group
    sp = hawaiian_truncation(30, 8)
    res = enumerate_isometries(sp)
    assert res.perms().shape == (0,)
    with pytest.raises(ValueError, match="group must hold"):
        critical_scale(sp, res.perms(), x=0, lo=0.8, hi=63.0)
    crit = critical_scale(sp, res.generators, x=0, lo=0.8, hi=63.0)
    assert abs(crit.r - 20 * math.pi) <= 1e-12


def test_critical_scale_below_the_float_spacing_stops_at_adjacent_floats():
    # the bracket is exact: the first crossing at or above lo lies inside
    # the bisection's bracket, however fine its tol
    for sp, x, lo, hi in ((hawaiian_truncation(3, 12), 0, 0.8, 63.0),
                          (hawaiian_truncation(6, 16), 0, 0.8, 63.0),
                          (hawaiian_truncation(4, 8), 5, 0.0, 100.0),
                          (circle_space(1.0, 24), 3, 0.5, 70.0)):
        rows = enumerate_isometries(sp).perms()
        a, b = critical_scale(sp, rows, x=x, lo=lo, hi=hi).bracket
        assert b == np.nextafter(a, np.inf)
        assert displacement(sp, rows, a, x) >= a / 20
        assert displacement(sp, rows, b, x) < b / 20
        for tol in (1e-9, 1e-300):
            oa, ob = critical_scale_oracle(sp, rows, x, lo, hi, tol)
            assert oa <= a and b <= ob


def test_critical_scale_finds_the_first_crossing_at_or_above_lo():
    # two swapped pairs hang off cell 0: {1, 2} at distance 2 with
    # d(1, 2) = 1, and {3, 4} at distance 15 with d(3, 4) = 4.  D is 1
    # from r = 4 and 4 from r = 30, so it crosses r/20 downward at 20
    # and again at 80; a bisection from (4, 100) finds only the second
    dist = np.zeros((5, 5))
    far = {1: 2.0, 2: 2.0, 3: 15.0, 4: 15.0}
    for i in range(1, 5):
        dist[0, i] = dist[i, 0] = far[i]
        for j in range(1, 5):
            if i != j:
                dist[i, j] = far[i] + far[j]
    dist[1, 2] = dist[2, 1] = 1.0
    dist[3, 4] = dist[4, 3] = 4.0
    sp = FiniteMMS(dist=dist, weight=np.ones(5))
    rows = [[0, 2, 1, 3, 4], [0, 1, 2, 4, 3]]
    for lo, crossing in ((4.0, 20.0), (20.0, 20.0), (30.0, 80.0)):
        crit = critical_scale(sp, rows, x=0, lo=lo, hi=100.0)
        assert crit.r == crossing
        assert crit.bracket == (crossing, np.nextafter(crossing, np.inf))
    assert critical_scale_oracle(sp, rows, 0, 4.0, 100.0, 1e-9)[0] > 79.0
