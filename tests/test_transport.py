import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmslab import transport
from mmslab import (
    FiniteMMS,
    GeodesicPlan,
    as_measure,
    brute_force_w2,
    delta,
    hawaiian_truncation,
    lift_to_geodesic_plan,
    plan_cost,
    plan_marginals,
    pushforward_at,
    scale,
    segment_space,
    solve_w2,
    symmetrized_competitor,
    uniform_on,
    uniqueness_probe,
    verify_competitor,
)

HALF_PI = math.pi / 2.0


def line_space(xs, weights=None):
    xs = np.asarray(xs, dtype=float)
    dist = np.abs(xs[:, None] - xs[None, :])
    w = np.ones(len(xs)) if weights is None else np.asarray(weights, dtype=float)
    coords = np.column_stack([xs, np.zeros(len(xs))])
    return FiniteMMS(dist=dist, weight=w, coords=coords,
                     meta={"pitch": float(np.min(np.diff(np.sort(xs))))})


def random_instance(rng, n0, n1):
    pts = rng.uniform(0.0, 1.0, size=(n0 + n1, 2))
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    sp = FiniteMMS(dist=dist, weight=np.ones(n0 + n1), coords=pts, meta={})
    mu0 = np.zeros(sp.n)
    mu1 = np.zeros(sp.n)
    mu0[:n0] = rng.uniform(0.1, 1.0, n0)
    mu1[n0:] = rng.uniform(0.1, 1.0, n1)
    return sp, mu0 / mu0.sum(), mu1 / mu1.sum()


def cloud(points):
    """Planar point cloud with unit cell weights."""
    points = np.asarray(points, dtype=float)
    diff = points[:, None, :] - points[None, :, :]
    return FiniteMMS(dist=np.sqrt((diff**2).sum(-1)),
                     weight=np.ones(len(points)), coords=points, meta={})


def dense_marginal_constraints(sm, tm):
    """The dense (n0 + n1) x (n0 * n1) constraint matrix the LP was first
    built with, kept as an oracle for the sparse one."""
    n0, n1 = len(sm), len(tm)
    a_eq = np.vstack([np.repeat(np.eye(n0), n1, axis=1),
                      np.tile(np.eye(n1), n0)])
    return a_eq, np.concatenate([sm, tm])


def circle_reflection(space, k):
    """Permutation reflecting circle k of a truncated earring in place."""
    m = space.meta["cells_per_circle"]
    first = 1 + k * (m - 1)         # circle k holds m - 1 cells from here
    perm = np.arange(space.n)
    perm[first:first + m - 1] = perm[first + m - 2:first - 1:-1]
    return perm


# === measures ===

def test_as_measure_accepts_dicts_pairs_and_vectors():
    sp = line_space([0.0, 1.0, 2.0])
    a = as_measure(sp, {0: 0.5, 2: 0.5})
    b = as_measure(sp, [(0, 0.5), (2, 0.5)])
    c = as_measure(sp, np.array([0.5, 0.0, 0.5]))
    assert np.array_equal(a, b)
    assert np.array_equal(a, c)


def test_as_measure_rejects_bad_input():
    sp = line_space([0.0, 1.0])
    with pytest.raises(ValueError):
        as_measure(sp, {0: -0.1, 1: 1.1})
    with pytest.raises(ValueError):
        as_measure(sp, {})
    with pytest.raises(ValueError):
        as_measure(sp, np.ones(3))
    # each was read as a mass of 1
    for spec in ({0: True}, {0: "1"}, [(0, np.True_)], np.array([True, False])):
        with pytest.raises(ValueError, match="real number"):
            as_measure(sp, spec)


@pytest.mark.parametrize("spec", [
    {0: math.nan}, {0: math.inf}, [(0, 1.0), (1, math.nan)],
    {0: 1e308, 1: 1e308}, np.array([1.0, math.inf])])
def test_as_measure_rejects_masses_without_a_finite_sum(spec):
    sp = line_space([0.0, 1.0])
    with pytest.raises(ValueError, match="sum must be finite"):
        as_measure(sp, spec)


def test_uniform_on_rejects_an_empty_cell_set():
    sp = line_space([0.0, 1.0])
    with pytest.raises(ValueError, match="at least one cell"):
        uniform_on(sp, [])


@pytest.mark.parametrize("bad", [-1, 3])
def test_cell_ids_outside_the_space_are_rejected(bad):
    sp = line_space([0.0, 1.0, 2.0])
    builders = (lambda: as_measure(sp, {0: 0.5, bad: 0.5}),
                lambda: as_measure(sp, [(bad, 1.0)]),
                lambda: delta(sp, bad),
                lambda: uniform_on(sp, [0, bad]))
    for build in builders:
        with pytest.raises(ValueError, match=f"cell id {bad} outside"):
            build()


def test_uniform_on_follows_cell_weights():
    sp = line_space([0.0, 1.0, 2.0], weights=[1.0, 3.0, 6.0])
    mu = uniform_on(sp, [1, 2])
    assert mu[0] == 0.0
    assert mu[1] == pytest.approx(1.0 / 3.0)
    assert mu[2] == pytest.approx(2.0 / 3.0)


# === the LP route ===

def test_point_to_point_cost_is_squared_distance():
    sp = line_space([0.0, 0.7])
    res = solve_w2(sp, delta(sp, 0), delta(sp, 1))
    assert res.cost == pytest.approx(0.49, abs=1e-12)
    assert res.w2 == pytest.approx(0.7, abs=1e-12)


def test_identical_measures_cost_zero():
    sp = segment_space(HALF_PI / 20)
    mu = sp.weight / sp.weight.sum()
    assert solve_w2(sp, mu, mu).cost <= 1e-12


def test_cost_is_symmetric_in_the_marginals():
    rng = np.random.default_rng(3)
    sp, mu0, mu1 = random_instance(rng, 4, 4)
    assert solve_w2(sp, mu0, mu1).cost == pytest.approx(
        solve_w2(sp, mu1, mu0).cost, abs=1e-12)


def test_triangle_inequality_for_w2():
    sp = segment_space(HALF_PI / 12)
    rng = np.random.default_rng(11)
    for _ in range(5):
        a, b, c = (rng.uniform(0.05, 1.0, sp.n) for _ in range(3))
        a, b, c = a / a.sum(), b / b.sum(), c / c.sum()
        ab = solve_w2(sp, a, b).w2
        bc = solve_w2(sp, b, c).w2
        ac = solve_w2(sp, a, c).w2
        assert ac <= ab + bc + 1e-9


@pytest.mark.parametrize("route", [solve_w2, brute_force_w2,
                                   uniqueness_probe],
                         ids=lambda route: route.__name__)
def test_unequal_totals_are_rejected(route):
    # the one equal-mass check, reached through every entry point
    sp = line_space([0.0, 1.0])
    with pytest.raises(ValueError, match="equal total mass"):
        route(sp, np.array([1.0, 0.0]), np.array([0.0, 0.5]))


def test_forced_coupling_from_a_point_source():
    sp = line_space([0.0, 1.0, 3.0])
    mu1 = as_measure(sp, {1: 0.25, 2: 0.75})
    res = solve_w2(sp, delta(sp, 0), mu1)
    assert np.allclose(res.coupling.matrix, [[0.25, 0.75]])
    assert res.cost == pytest.approx(0.25 * 1 + 0.75 * 9, abs=1e-12)


def test_marginals_survive_repair_to_tight_tolerance():
    rng = np.random.default_rng(9)
    sp, mu0, mu1 = random_instance(rng, 5, 5)
    res = solve_w2(sp, mu0, mu1)
    assert np.max(np.abs(res.coupling.row_marginal() - mu0[:5])) <= 1e-12
    assert np.max(np.abs(res.coupling.col_marginal() - mu1[5:])) <= 1e-12


def test_solver_is_deterministic(monkeypatch):
    rng = np.random.default_rng(13)
    sp, mu0, mu1 = random_instance(rng, 4, 5)
    a = solve_w2(sp, mu0, mu1)
    monkeypatch.setattr(transport, "_LAST_SOLVE", None)
    b = solve_w2(sp, mu0, mu1)
    assert b is not a
    assert np.array_equal(a.coupling.matrix, b.coupling.matrix)


def overlapping_instance(rng, n):
    """Random masses on cells [0, 2n/3) and [n/3, n) of a line."""
    sp = line_space(np.sort(rng.uniform(0.0, 1.0, n)))
    mu0 = np.zeros(n)
    mu1 = np.zeros(n)
    mu0[:2 * n // 3] = rng.uniform(0.1, 1.0, 2 * n // 3)
    mu1[n // 3:] = rng.uniform(0.1, 1.0, n - n // 3)
    return sp, mu0 / mu0.sum(), mu1 / mu1.sum()


def test_sparse_constraints_equal_the_dense_oracle():
    rng = np.random.default_rng(1)
    for n0, n1 in ((2, 2), (3, 5), (6, 4)):
        sm, tm = rng.random(n0), rng.random(n1)
        a_eq, b_eq = transport._marginal_constraints(sm, tm)
        want_a, want_b = dense_marginal_constraints(sm, tm)
        assert np.array_equal(a_eq.toarray(), want_a)
        assert np.array_equal(b_eq, want_b)


@pytest.mark.parametrize("make, n0, n1", [
    (random_instance, 2, 2), (random_instance, 3, 5),
    (random_instance, 20, 30), (random_instance, 75, 75),
    (random_instance, 200, 200), (overlapping_instance, 9, None),
    (overlapping_instance, 90, None)])
def test_solve_is_bit_identical_to_the_dense_oracle(monkeypatch, make, n0, n1):
    rng = np.random.default_rng(n0 + 7 * (n1 or 0))
    sp, mu0, mu1 = make(rng, n0) if n1 is None else make(rng, n0, n1)
    sparse = solve_w2(sp, mu0, mu1)
    monkeypatch.setattr(transport, "_marginal_constraints",
                        dense_marginal_constraints)
    monkeypatch.setattr(transport, "_LAST_SOLVE", None)
    dense = solve_w2(sp, mu0, mu1)
    assert np.array_equal(sparse.coupling.source_idx, dense.coupling.source_idx)
    assert np.array_equal(sparse.coupling.target_idx, dense.coupling.target_idx)
    assert np.array_equal(sparse.coupling.matrix, dense.coupling.matrix)
    assert sparse.cost == dense.cost


def test_a_200_by_200_solve_allocates_far_less_than_the_dense_matrix(
        monkeypatch):
    """The dense constraint matrix alone took 400 * 40,000 * 8 B = 128 MB;
    the sparse solve peaks near 13 MB, nearly all of it inside linprog."""
    sp, mu0, mu1 = random_instance(np.random.default_rng(200), 200, 200)
    monkeypatch.setattr(transport, "_LAST_SOLVE", None)
    tracemalloc.start()
    try:
        solve_w2(sp, mu0, mu1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32e6


# === the kept solve ===

def assert_same_result(a, b):
    assert np.array_equal(a.coupling.source_idx, b.coupling.source_idx)
    assert np.array_equal(a.coupling.target_idx, b.coupling.target_idx)
    assert np.array_equal(a.coupling.matrix, b.coupling.matrix)
    assert a.cost == b.cost
    assert np.array_equal(a.duals, b.duals)


def fresh_solve(monkeypatch, sp, mu0, mu1):
    monkeypatch.setattr(transport, "_LAST_SOLVE", None)
    return solve_w2(sp, mu0, mu1)


def test_a_repeated_solve_and_a_probe_after_it_reuse_the_lp():
    sp, mu0, mu1 = random_instance(np.random.default_rng(31), 6, 7)
    res = solve_w2(sp, mu0, mu1)
    assert solve_w2(sp, mu0, mu1) is res
    assert uniqueness_probe(sp, mu0, mu1).base is res


def test_a_problem_one_ulp_away_is_solved_afresh(monkeypatch):
    sp, mu0, mu1 = random_instance(np.random.default_rng(32), 6, 7)
    first = solve_w2(sp, mu0, mu1)
    nudged = mu0.copy()
    nudged[2] = np.nextafter(nudged[2], 1.0)
    res = solve_w2(sp, nudged, mu1)
    assert res is not first
    assert_same_result(res, fresh_solve(monkeypatch, sp, nudged, mu1))

    again = solve_w2(sp, mu0, mu1)
    dist = sp.dist.copy()
    dist[1, 9] = dist[9, 1] = np.nextafter(dist[1, 9], 2.0)
    far = FiniteMMS(dist=dist, weight=sp.weight)
    assert (far.dist[1, 9] ** 2) != (sp.dist[1, 9] ** 2)
    res = solve_w2(far, mu0, mu1)
    assert res is not again
    assert_same_result(res, fresh_solve(monkeypatch, far, mu0, mu1))


def test_the_same_distances_on_relabelled_cells_are_solved_afresh(
        monkeypatch):
    """One extra cell between the targets and the sources shifts only the
    source cells: the masses and squared distances keep their bits."""
    rng = np.random.default_rng(33)
    pts = rng.random((11, 2))
    sp = cloud(pts)
    shifted = cloud(np.insert(pts, 5, [9.0, 9.0], axis=0))
    mu0, mu1 = uniform_on(sp, range(5, 11)), uniform_on(sp, range(5))
    first = solve_w2(sp, mu0, mu1)
    mu0s, mu1s = uniform_on(shifted, range(6, 12)), uniform_on(shifted, range(5))
    res = solve_w2(shifted, mu0s, mu1s)
    assert res is not first
    assert np.array_equal(res.coupling.source_idx, first.coupling.source_idx + 1)
    assert np.array_equal(res.coupling.matrix, first.coupling.matrix)
    assert_same_result(res, fresh_solve(monkeypatch, shifted, mu0s, mu1s))


def test_a_one_point_support_is_never_kept():
    sp, mu0, mu1 = random_instance(np.random.default_rng(34), 4, 4)
    res = solve_w2(sp, mu0, mu1)
    point = solve_w2(sp, delta(sp, 0), mu1)
    assert point.duals is None
    assert transport._LAST_SOLVE[1] is res
    assert solve_w2(sp, mu0, mu1) is res


def test_solve_results_are_read_only():
    sp, mu0, mu1 = random_instance(np.random.default_rng(35), 4, 4)
    for res in (solve_w2(sp, mu0, mu1), solve_w2(sp, delta(sp, 0), mu1)):
        c = res.coupling
        for arr in (c.source_idx, c.target_idx, c.matrix, res.duals):
            if arr is None:
                continue
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0


# === the enumeration route ===

def test_both_routes_agree_on_random_instances():
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(40):
        n0 = int(rng.integers(2, 6))
        n1 = int(rng.integers(2, 6))
        sp, mu0, mu1 = random_instance(rng, n0, n1)
        worst = max(worst, abs(solve_w2(sp, mu0, mu1).cost
                               - brute_force_w2(sp, mu0, mu1)))
    assert worst <= 1e-9


@st.composite
def small_instances(draw):
    """Up to 4 x 4 planar supports, apart or overlapping, with points on a
    1/3 lattice half the time (ties make many plans optimal) and
    positive masses."""
    n0, n1 = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    coord = draw(st.sampled_from([
        st.floats(0.0, 1.0),
        st.integers(0, 3).map(lambda v: v / 3)]))
    pts = draw(st.lists(st.tuples(coord, coord), min_size=n0 + n1,
                        max_size=n0 + n1))
    sp = cloud(pts)
    shift = draw(st.integers(0, n0))       # target cells start here
    mass = st.floats(0.05, 1.0)
    mu0, mu1 = np.zeros(sp.n), np.zeros(sp.n)
    mu0[:n0] = draw(st.lists(mass, min_size=n0, max_size=n0))
    mu1[shift:shift + n1] = draw(st.lists(mass, min_size=n1, max_size=n1))
    return sp, mu0 / mu0.sum(), mu1 / mu1.sum()


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(instance=small_instances())
def test_both_routes_agree_on_drawn_instances(instance):
    # 4 x 5 and 5 x 5 supports are left out: their enumeration time
    # varies by orders of magnitude from one instance to the next
    sp, mu0, mu1 = instance
    res = solve_w2(sp, mu0, mu1)
    assert abs(res.cost - brute_force_w2(sp, mu0, mu1)) <= 1e-9
    # the probe's own base solve is this solve, bit for bit
    transport._LAST_SOLVE = None
    base = uniqueness_probe(sp, mu0, mu1).base
    assert np.array_equal(base.coupling.source_idx, res.coupling.source_idx)
    assert np.array_equal(base.coupling.target_idx, res.coupling.target_idx)
    assert np.array_equal(base.coupling.matrix, res.coupling.matrix)
    assert base.cost == res.cost
    assert (base.duals is None and res.duals is None
            or np.array_equal(base.duals, res.duals))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(instance=small_instances(), factor=st.floats(0.25, 4.0))
def test_cost_scales_with_the_square_of_the_metric(instance, factor):
    sp, mu0, mu1 = instance
    base = solve_w2(sp, mu0, mu1).cost
    zoomed = solve_w2(scale(sp, factor), mu0, mu1).cost
    assert zoomed == pytest.approx(base / factor**2, rel=1e-9, abs=1e-15)


def test_both_routes_agree_with_overlapping_supports():
    sp = line_space([0.0, 0.5, 1.0, 2.0])
    mu0 = as_measure(sp, {0: 0.5, 1: 0.3, 2: 0.2})
    mu1 = as_measure(sp, {1: 0.4, 2: 0.4, 3: 0.2})
    assert solve_w2(sp, mu0, mu1).cost == pytest.approx(
        brute_force_w2(sp, mu0, mu1), abs=1e-12)


def test_brute_force_rejects_large_supports():
    sp = line_space(np.arange(12, dtype=float))
    mu0 = uniform_on(sp, range(6))
    mu1 = uniform_on(sp, range(6, 12))
    with pytest.raises(ValueError):
        brute_force_w2(sp, mu0, mu1)


def test_brute_force_handles_degenerate_uniform_masses():
    sp = line_space([0.0, 1.0, 2.0, 3.0])
    mu0 = uniform_on(sp, [0, 1])
    mu1 = uniform_on(sp, [2, 3])
    # monotone pairing: 0->2 and 1->3, each with mass 1/2
    assert brute_force_w2(sp, mu0, mu1) == pytest.approx(4.0, abs=1e-12)


# === uniqueness ===

def test_probe_confirms_a_unique_monotone_plan():
    sp = line_space([0.0, 1.0, 2.0, 3.0])
    mu0 = uniform_on(sp, [0, 1])
    mu1 = uniform_on(sp, [2, 3])
    probe = uniqueness_probe(sp, mu0, mu1, seed=2)
    assert probe.unique
    assert probe.certificate == "forest"
    assert probe.witness is None
    assert probe.deviation <= 1e-8
    # a map: each source cell feeds exactly one target cell
    feeds = np.count_nonzero(probe.base.coupling.matrix > 1e-9, axis=1)
    assert np.all(feeds == 1)


def test_probe_detects_the_square_degeneracy():
    pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    sp = FiniteMMS(dist=dist, weight=np.ones(4), coords=pts, meta={})
    mu0 = uniform_on(sp, [0, 1])
    mu1 = uniform_on(sp, [2, 3])
    probe = uniqueness_probe(sp, mu0, mu1, seed=2)
    assert not probe.unique
    assert probe.certificate == "witness"
    assert probe.deviation > 1e-3
    assert np.max(np.abs(probe.witness.matrix - probe.base.coupling.matrix)) > 1e-3


def test_a_one_point_support_counts_as_a_forest():
    sp = line_space([0.0, 1.0, 3.0])
    probe = uniqueness_probe(sp, delta(sp, 0), uniform_on(sp, [1, 2]))
    assert probe.unique and probe.certificate == "forest"
    assert probe.deviation == 0.0


def test_duals_are_none_exactly_on_one_point_supports():
    sp = line_space([0.0, 1.0, 3.0, 4.0])
    for a, b in ([0], [2]), ([0], [2, 3]), ([0, 1], [3]), ([0, 1], [2, 3]):
        res = solve_w2(sp, uniform_on(sp, a), uniform_on(sp, b))
        if len(a) == 1 or len(b) == 1:
            assert res.duals is None, (a, b)
        else:
            assert res.duals.shape == (len(a) + len(b),), (a, b)


def test_probe_decides_the_eight_planar_draws(monkeypatch):
    """Unit masses on n sources and n targets in the unit square; the odd
    draws sit on a 1/3 lattice, where ties make many plans optimal.  The
    probe's base is the solve's result, and its duals close the duality
    gap within the rounding allowance of the probe's slack."""
    rng = np.random.default_rng(2)
    for k in range(8):
        n = int(rng.integers(3, 9))
        p = rng.random((2 * n, 2))
        if k % 2:
            p = np.round(3 * p) / 3
        sp = cloud(p)
        mu0, mu1 = uniform_on(sp, range(n)), uniform_on(sp, range(n, 2 * n))
        probe = uniqueness_probe(sp, mu0, mu1)
        monkeypatch.setattr(transport, "_LAST_SOLVE", None)
        base, res = probe.base, solve_w2(sp, mu0, mu1)
        assert np.array_equal(base.coupling.matrix, res.coupling.matrix), k
        assert base.cost == res.cost and np.array_equal(base.duals, res.duals)
        b_eq = np.concatenate([mu0[:n], mu1[n:]])
        allowance = 2 * n * n * np.finfo(float).eps * base.cost
        assert abs(b_eq @ base.duals - base.cost) <= allowance, k
        if k % 2 == 0:
            assert probe.unique and probe.certificate == "forest", k
            continue
        assert probe.certificate in ("forest", "witness"), k
        if probe.witness is not None:
            w = probe.witness
            d2 = sp.dist[np.ix_(w.source_idx, w.target_idx)] ** 2
            assert abs((w.matrix * d2).sum() - probe.base.cost) <= 1e-15, k
            assert np.max(np.abs(w.row_marginal() - 1 / n)) <= 1e-12
            assert np.max(np.abs(w.col_marginal() - 1 / n)) <= 1e-12


def optimal_vertex_count(space, mu0, mu1):
    """Number of distinct optimal vertices of the transport polytope.

    Every vertex is the one solution of the marginal equations on some
    spanning tree of the complete bipartite graph, so solving on every
    (n0 + n1 - 1)-edge subset of full rank and keeping the nonnegative
    solutions lists them all."""
    si, ti = np.flatnonzero(mu0), np.flatnonzero(mu1)
    n0, n1 = len(si), len(ti)
    c = (space.dist[np.ix_(si, ti)] ** 2).ravel()
    a_eq, b_eq = dense_marginal_constraints(mu0[si], mu1[ti])
    vertices = {}
    for cols in combinations(range(n0 * n1), n0 + n1 - 1):
        x, _, rank, _ = np.linalg.lstsq(a_eq[:, cols], b_eq, rcond=None)
        if rank < n0 + n1 - 1 or x.min() < -1e-12:
            continue
        full = np.zeros(n0 * n1)
        full[list(cols)] = np.maximum(x, 0.0)
        vertices[tuple(np.round(full, 9))] = float(full @ c)
    best = min(vertices.values())
    return sum(v <= best + 1e-12 for v in vertices.values())


def probe_instances():
    """Supports up to 3 x 4 on continuous and 1/3-lattice clouds, with
    equal and unequal masses, and the square of four points."""
    rng = np.random.default_rng(17)
    out = []
    for k in range(24):
        n0, n1 = int(rng.integers(2, 4)), int(rng.integers(2, 5))
        p = rng.random((n0 + n1, 2))
        if k % 2:
            p = np.round(3 * p) / 3
        sp = cloud(p)
        w0, w1 = np.ones(n0), np.ones(n1)
        if k % 4 == 3:
            w0, w1 = rng.integers(1, 3, n0), rng.integers(1, 3, n1)
        mu0, mu1 = np.zeros(sp.n), np.zeros(sp.n)
        mu0[:n0] = w0 / w0.sum()
        mu1[n0:] = w1 / w1.sum()
        out.append((sp, mu0, mu1))
    sq = cloud([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    out.append((sq, uniform_on(sq, [0, 1]), uniform_on(sq, [2, 3])))
    return out


def test_probe_verdicts_match_the_vertex_enumeration():
    verdicts = []
    for sp, mu0, mu1 in probe_instances():
        probe = uniqueness_probe(sp, mu0, mu1)
        count = optimal_vertex_count(sp, mu0, mu1)
        assert probe.unique == (count == 1), (count, probe)
        verdicts.append(probe.certificate)
    # both outcomes occur, or the enumeration checks nothing
    assert "forest" in verdicts and "witness" in verdicts


# === geodesic plans ===

def test_plan_mass_must_sum_to_one():
    sp = segment_space(HALF_PI / 10)
    res = solve_w2(sp, delta(sp, 0), delta(sp, 5))
    plan = lift_to_geodesic_plan(sp, res.coupling)
    with pytest.raises(ValueError):
        GeodesicPlan(atoms=tuple((g, 0.5 * m) for g, m in plan.atoms))


def test_lifted_plan_replays_the_coupling():
    sp = segment_space(HALF_PI / 40)
    mu0 = uniform_on(sp, [0, 1, 2])
    mu1 = uniform_on(sp, [20, 30])
    res = solve_w2(sp, mu0, mu1)
    plan = lift_to_geodesic_plan(sp, res.coupling)
    e0, e1 = plan_marginals(sp, plan)
    assert np.max(np.abs(e0 - mu0)) <= 1e-12
    assert np.max(np.abs(e1 - mu1)) <= 1e-12
    assert np.array_equal(pushforward_at(sp, plan, 0.0), e0)
    assert np.array_equal(pushforward_at(sp, plan, 1.0), e1)


def test_plan_cost_matches_lp_cost_on_a_chain():
    sp = segment_space(HALF_PI / 40)
    mu0 = uniform_on(sp, [0, 1, 2, 3])
    mu1 = uniform_on(sp, [25, 30, 35])
    res = solve_w2(sp, mu0, mu1)
    plan = lift_to_geodesic_plan(sp, res.coupling)
    assert plan_cost(plan) == pytest.approx(res.cost, rel=1e-9)


def test_midpoint_of_a_single_atom_plan():
    sp = segment_space(HALF_PI / 60)
    res = solve_w2(sp, delta(sp, 10), delta(sp, 50))
    plan = lift_to_geodesic_plan(sp, res.coupling)
    mid = np.flatnonzero(pushforward_at(sp, plan, 0.5))
    assert len(mid) == 1
    gap = abs(sp.coords[mid[0], 0] - 0.5 * (sp.coords[10, 0] + sp.coords[50, 0]))
    assert gap <= 2 * sp.pitch()


def test_a_1600_cell_lift_walks_the_whole_segment():
    """The segment of criterion 10: a path of 1,594 nodes, far deeper
    than a recursive walk could go."""
    sp = segment_space(HALF_PI / 1600)
    res = solve_w2(sp, delta(sp, 3), delta(sp, 1596))
    plan = lift_to_geodesic_plan(sp, res.coupling)
    (g, m), = plan.atoms
    assert m == 1.0
    assert g.nodes == tuple(range(3, 1597))
    assert g.length == sp.dist[3, 1596]
    assert plan_cost(plan) == pytest.approx(res.cost, rel=1e-12)


# === the symmetrization competitor ===

def earring_scenario():
    """Mass on circle 2 of a 3-circle earring moved to a point x of
    circle 1 and its mirror image; the reflection fixes the sources."""
    sp = hawaiian_truncation(3, 24)
    perm = circle_reflection(sp, 0)
    m = sp.meta["cells_per_circle"]
    source = [1 + (m - 1) + j for j in range(3, 7)]      # arc of circle 2
    x = 5                                                # off-axis on circle 1
    mu0 = uniform_on(sp, source)
    mu1 = as_measure(sp, {x: 0.5, int(perm[x]): 0.5})
    res = solve_w2(sp, mu0, mu1)
    plan = lift_to_geodesic_plan(sp, res.coupling)
    return sp, perm, plan, x


def test_competitor_shares_marginals_and_cost_but_differs():
    sp, perm, plan, x = earring_scenario()
    other = symmetrized_competitor(sp, perm, plan, x=x, iso_tol=1e-9)
    report = verify_competitor(sp, plan, other)
    assert report.marginals_equal and report.marginal_defect <= 1e-12
    assert report.cost_equal and report.cost_defect <= 1e-12
    assert report.distinct and report.plan_difference > 0.9
    assert report.ok


def test_competitor_with_ball_targets():
    sp = hawaiian_truncation(2, 24)
    perm = circle_reflection(sp, 0)
    m = sp.meta["cells_per_circle"]
    source = [1 + (m - 1) + j for j in range(2, 6)]
    branch = [4, 5]
    image = [int(perm[v]) for v in branch]
    mu1 = 0.5 * uniform_on(sp, branch) + 0.5 * uniform_on(sp, image)
    res = solve_w2(sp, uniform_on(sp, source), mu1)
    plan = lift_to_geodesic_plan(sp, res.coupling)
    other = symmetrized_competitor(sp, perm, plan, targets=branch, iso_tol=1e-9)
    assert verify_competitor(sp, plan, other).ok


def test_competitor_rejects_bad_configurations():
    sp, perm, plan, x = earring_scenario()
    with pytest.raises(ValueError):
        symmetrized_competitor(sp, perm, plan)               # no target given
    with pytest.raises(ValueError):
        symmetrized_competitor(sp, perm, plan, x=0)          # x is fixed
    with pytest.raises(ValueError):
        # target set meets its own mirror image
        symmetrized_competitor(sp, perm, plan, targets=[x, int(perm[x])])
    shuffled = np.arange(sp.n)
    shuffled[[1, 30]] = shuffled[[30, 1]]
    with pytest.raises(ValueError):
        symmetrized_competitor(sp, shuffled, plan, x=x, iso_tol=1e-9)


@pytest.mark.parametrize("iso_tol", [math.nan, -1.0])
def test_competitor_rejects_a_nan_or_negative_iso_tol(iso_tol):
    # a NaN tolerance passed the distortion test, so this non-isometry
    # (distortion 0.72) got a competitor plan
    sp, perm, plan, x = earring_scenario()
    swapped = perm.copy()
    swapped[[1, 30]] = swapped[[30, 1]]
    for p in (perm, swapped):
        with pytest.raises(ValueError, match="iso_tol"):
            symmetrized_competitor(sp, p, plan, x=x, iso_tol=iso_tol)


def test_competitor_rejects_unfixed_sources():
    sp = hawaiian_truncation(2, 24)
    perm = circle_reflection(sp, 0)
    res = solve_w2(sp, delta(sp, 3), as_measure(sp, {5: 0.5, int(perm[5]): 0.5}))
    plan = lift_to_geodesic_plan(sp, res.coupling)
    with pytest.raises(ValueError):
        symmetrized_competitor(sp, perm, plan, x=5, iso_tol=1e-9)


def test_verifier_flags_an_identical_plan():
    sp, perm, plan, x = earring_scenario()
    report = verify_competitor(sp, plan, plan)
    assert report.marginals_equal and report.cost_equal
    assert not report.distinct
    assert not report.ok
