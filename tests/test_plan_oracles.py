"""The plan-wide lift and plan evaluation against the per-atom code they
replaced, kept here as oracles: the recursive tight-edge walk with one
neighbor graph and two Dijkstras per pair, the scalar ``mcp_check``
loop with one ``model_coefficient`` and one ``evaluate`` call per
(time, atom), the per-time density loop, the per-atom marginal loop,
and the packing the plan evaluator once did on every call.  Plans,
arrays and reports must be equal, not close."""

import math
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from mmslab import (
    Coupling,
    DiscreteGeodesic,
    GeodesicPlan,
    NecklaceParams,
    as_measure,
    chebyshev_times,
    constant_speed_defect,
    delta,
    euclidean_ball_grid,
    evaluate,
    geodesics_between,
    hawaiian_truncation,
    lift_to_geodesic_plan,
    mcp_check,
    model_coefficient,
    necklace,
    necklace_schedule,
    plan_marginals,
    pushforward_at,
    schedule_density_check,
    segment_space,
    solve_w2,
    uniform_on,
)
from mmslab import contraction
from mmslab.contraction import DEGENERATE_LENGTH, McpReport
from mmslab.generators import necklace_fibers

HALF_PI = math.pi / 2.0


# === oracles: the per-atom code ===

def geodesics_oracle(space, a, b):
    if a == b:
        return DiscreteGeodesic(nodes=(a, a), times=(0.0, 1.0), length=0.0)
    pitch = space.pitch()
    geodesic_tol = 2.0 * pitch
    # the neighbor graph: all pairs within 1.5 grid pitches
    d = space.dist
    rows, cols = np.nonzero((d > 0) & (d <= 1.5 * pitch))
    graph = csr_matrix((d[rows, cols], (rows, cols)), shape=d.shape)
    da = dijkstra(graph, directed=False, indices=a)
    db = dijkstra(graph, directed=False, indices=b)
    total = da[b]
    if not np.isfinite(total):
        raise ValueError("endpoints are not connected in the neighbor graph")
    if abs(total - space.dist[a, b]) > geodesic_tol:
        raise ValueError("neighbor-graph shortest path deviates from dist")
    slack = 1e-9 * max(total, 1.0)
    indptr, indices, data = graph.indptr, graph.indices, graph.data
    chains = []

    def extend(u, prefix):
        if chains:
            return
        if u == b:
            chains.append(prefix)
            return
        nxt = indices[indptr[u]:indptr[u + 1]]
        wts = data[indptr[u]:indptr[u + 1]]
        tight = da[u] + wts + db[nxt] <= total + slack
        order = np.argsort(nxt[tight], kind="stable")
        for v in nxt[tight][order]:
            if da[v] > da[u]:
                extend(int(v), prefix + [int(v)])
                if chains:
                    return

    extend(a, [a])
    chain = chains[0]
    tt = da[np.asarray(chain)] / total
    g = DiscreteGeodesic(nodes=tuple(chain), times=tuple(tt),
                         length=float(space.dist[a, b]))
    if constant_speed_defect(space, g) > geodesic_tol:
        raise ValueError("constant-speed defect exceeds tolerance")
    return g


def lift_oracle(space, coupling):
    atoms = [(geodesics_oracle(space, i, j), m)
             for i, j, m in coupling.entries()]
    total = sum(m for _, m in atoms)
    return GeodesicPlan(atoms=tuple((g, m / total) for g, m in atoms))


def coefficient_oracle(t, length):
    t = np.asarray(t, dtype=float)
    length = np.asarray(length, dtype=float)
    small = length < DEGENERATE_LENGTH
    safe = np.where(small, 1.0, length)
    out = t * np.sin(t * safe) ** 2 / np.sin(safe) ** 2
    return np.where(small, t * t * t, out)


def mcp_oracle(space, plan, t_samples=None, allowance=None):
    if t_samples is None:
        t_samples = chebyshev_times()
    if allowance is None:
        allowance = 8.0 * space.pitch()
    e0, e1 = plan_marginals(space, plan)
    if int((e0 > 1e-12).sum()) != 1:
        raise ValueError("plan must start from a single cell")
    support = np.flatnonzero(e1 > 1e-12)
    mass_target = float(space.weight[support].sum())
    uniform = np.zeros(space.n)
    uniform[support] = space.weight[support] / mass_target
    marginal_defect = float(np.max(np.abs(e1 - uniform)))
    worst = (math.inf, 0.0, -1)
    rows = []
    for t in np.sort(np.asarray(t_samples, dtype=float)):
        lhs = np.zeros(space.n)
        for g, m in plan.atoms:
            coef = float(coefficient_oracle(t, g.length))
            lhs[evaluate(g, float(t))] += m * coef * mass_target
        touched = np.flatnonzero(lhs > 0)
        if len(touched) == 0:
            continue
        slack = space.weight[touched] - lhs[touched]
        k = int(np.argmin(slack))
        cell = int(touched[k])
        rows.append((float(t), cell, float(lhs[cell]),
                     float(space.weight[cell]), float(slack[k])))
        if slack[k] < worst[0]:
            worst = (float(slack[k]), float(t), cell)
    return McpReport(ok=bool(worst[0] + allowance >= 0.0),
                     allowance=float(allowance), worst_slack=worst[0],
                     worst_t=worst[1], worst_cell=worst[2],
                     mass_target=mass_target, marginal_defect=marginal_defect,
                     rows=tuple(rows))


def density_rows_oracle(space, sched):
    """The rows of ``schedule_density_check``, one ``evaluate`` per
    (time, atom)."""
    plan = sched.plan
    mass_target = float(space.weight[np.asarray(sched.target_cells)].sum())
    l = sched.length
    times = sorted(set(plan.atoms[0][0].times)
                   | {sched.t_spread, sched.t_flat_start, sched.t_flat_end})
    rows = []
    for t in times:
        if t <= 0.0:
            continue
        supp = np.unique([evaluate(g, t) for g, _ in plan.atoms])
        supp_mass = float(space.weight[supp].sum())
        lhs = mass_target / (t * supp_mass)
        rhs = math.sin(l) ** 2 / (t * math.sin(t * l) ** 2)
        rows.append((t, supp_mass, lhs, rhs, rhs - lhs))
    return tuple(rows)


def marginals_oracle(space, plan):
    e0 = np.zeros(space.n)
    e1 = np.zeros(space.n)
    for g, m in plan.atoms:
        e0[g.start] += m
        e1[g.end] += m
    return e0, e1


def evaluator_oracle(plan):
    """The packing and the rule of the former ``plan_evaluator``: its
    arrays, and ``nodes_at``."""
    counts = [len(g.nodes) for g, _ in plan.atoms]
    starts = np.cumsum([0] + counts[:-1])
    times = np.fromiter(chain.from_iterable(g.times for g, _ in plan.atoms),
                        dtype=float, count=sum(counts))
    nodes = np.fromiter(chain.from_iterable(g.nodes for g, _ in plan.atoms),
                        dtype=np.intp, count=sum(counts))
    atom_of = np.repeat(np.arange(len(counts)), counts)

    def nodes_at(t):
        if not counts:
            return nodes
        if not 0.0 <= t <= 1.0:
            raise ValueError("t must lie in [0, 1]")
        gap = np.abs(times - t)
        nearest = np.flatnonzero(gap == np.minimum.reduceat(gap, starts)[atom_of])
        return nodes[nearest[np.searchsorted(nearest, starts)]]

    packed = {"nodes": nodes, "times": times,
              "starts": np.append(starts[:len(counts)],
                                  sum(counts)).astype(np.intp),
              "lengths": np.array([g.length for g, _ in plan.atoms]),
              "masses": np.array([m for _, m in plan.atoms])}
    return packed, nodes_at


def assert_packing_matches(space, plan):
    """The plan's arrays and marginals against the oracles, equal in value
    and dtype; the arrays are read-only."""
    packed, _ = evaluator_oracle(plan)
    for name, want in packed.items():
        got = getattr(plan, name)
        assert np.array_equal(got, want) and got.dtype == want.dtype, name
        assert not got.flags.writeable, name
    for got, want in zip(plan_marginals(space, plan),
                         marginals_oracle(space, plan)):
        assert np.array_equal(got, want) and got.dtype == want.dtype


def pushforward_oracle(space, plan, t):
    out = np.zeros(space.n)
    for g, m in plan.atoms:
        out[evaluate(g, t)] += m
    return out


def assert_evaluation_matches(space, plan, times):
    assert_packing_matches(space, plan)
    _, oracle_at = evaluator_oracle(plan)
    table = plan.nodes_at(np.asarray(times, dtype=float))
    assert table.shape == (len(times), len(plan.atoms))
    for t, row in zip(times, table):
        t = float(t)
        assert plan.nodes_at(t).tolist() == [evaluate(g, t)
                                             for g, _ in plan.atoms]
        assert np.array_equal(plan.nodes_at(t), oracle_at(t))
        assert np.array_equal(row, oracle_at(t))
        assert np.array_equal(pushforward_at(space, plan, t),
                              pushforward_oracle(space, plan, t))


def assert_plan_matches(space, coupling, times=None):
    plan = lift_to_geodesic_plan(space, coupling)
    assert plan == lift_oracle(space, coupling)
    e0, _ = plan_marginals(space, plan)
    if int((e0 > 1e-12).sum()) == 1:
        assert mcp_check(space, plan, t_samples=times) == mcp_oracle(
            space, plan, t_samples=times)
    assert_evaluation_matches(space, plan, chebyshev_times(17))
    return plan


# === lifts and reports ===

@pytest.mark.parametrize("cells", [40, 90, 150, 260, 400])
def test_segment_point_to_set_plans_match_the_oracles(cells):
    rng = np.random.default_rng(cells)
    sp = segment_space(HALF_PI / cells)
    source = int(rng.integers(0, cells // 10))
    width = cells // 4
    start = int(rng.integers(cells // 2, cells - width + 1))
    res = solve_w2(sp, delta(sp, source),
                   uniform_on(sp, range(start, start + width)))
    plan = assert_plan_matches(sp, res.coupling, chebyshev_times(129))
    assert len(plan.atoms) == width


def test_segment_set_to_set_plan_matches_the_oracle():
    rng = np.random.default_rng(7)
    sp = segment_space(HALF_PI / 120)
    mu0 = as_measure(sp, {int(i): float(rng.uniform(0.2, 1.0))
                          for i in rng.choice(40, size=6, replace=False)})
    mu1 = as_measure(sp, {int(i): float(rng.uniform(0.2, 1.0))
                          for i in 60 + rng.choice(60, size=9, replace=False)})
    res = solve_w2(sp, mu0 / mu0.sum(), mu1 / mu1.sum())
    assert_plan_matches(sp, res.coupling)


def test_a_source_inside_its_target_set_matches_the_oracle():
    """An atom of length zero takes the cubic branch of the coefficient;
    numpy's SIMD power loop would round about one t in twenty of these
    samples differently from the two products both sides take."""
    sp = segment_space(HALF_PI / 60)
    res = solve_w2(sp, delta(sp, 30), uniform_on(sp, range(25, 36)))
    plan = assert_plan_matches(sp, res.coupling, np.linspace(0.0, 1.0, 401))
    assert any(g.length == 0.0 for g, _ in plan.atoms)


def test_coefficient_matches_the_numpy_formula_pair_by_pair():
    rng = np.random.default_rng(3)
    ts = np.concatenate([chebyshev_times(129), rng.random(40)])
    lengths = np.concatenate([np.arange(1, 101) * (HALF_PI / 100),
                              rng.random(30) * 3.2, [0.0, 1e-13, 1e-12]])
    got = model_coefficient(ts[:, None], lengths[None, :])
    want = [[float(coefficient_oracle(t, length)) for length in lengths]
            for t in ts]
    assert got.tolist() == want


def test_chains_match_the_recursive_walk():
    """Each pair alone and all pairs of a space in one call (one Dijkstra
    call for the sources, one for the targets) give the oracle's chain,
    which runs one Dijkstra call per endpoint."""
    space = necklace(NecklaceParams(beads=((0.8, 0.4),),
                                    resolution=HALF_PI / 120))
    x = space.coords[:, 0]
    y = space.coords[:, 1]
    pairs = [(int(np.argmin(np.abs(x - u) + np.abs(y - v))),
              int(np.argmin(np.abs(x - s) + np.abs(y - w))))
             for u, v, s, w in ((0.7, 0.0, 0.9, 0.0), (0.65, 0.02, 0.95, -0.03),
                                (0.1, 0.0, 1.2, 0.0), (0.9, 0.0, 0.7, 0.0))]
    seg = segment_space(HALF_PI / 100)
    for sp, some in ((space, pairs), (seg, [(10, 60), (60, 10), (5, 5)])):
        want = [geodesics_oracle(sp, a, b) for a, b in some]
        assert [geodesics_between(sp, [p])[0] for p in some] == want
        assert geodesics_between(sp, some) == want


def test_earring_competitor_plan_matches_the_oracle():
    m = 24
    sp = hawaiian_truncation(3, m)
    perm = np.arange(sp.n)
    perm[1:m] = perm[1:m][::-1]
    for offset, x in ((1, 5), (7, 17), (12, 3)):
        mu0 = uniform_on(sp, [m + offset + j for j in range(4)])
        mu1 = as_measure(sp, {x: 0.5, int(perm[x]): 0.5})
        assert_plan_matches(sp, solve_w2(sp, mu0, mu1).coupling)


def test_ball_grid_plan_matches_the_oracle():
    sp = euclidean_ball_grid(2, 1.0, 0.125)
    far = np.flatnonzero(sp.coords[:, 0] >= 0.5)
    centre = int(np.argmin(np.abs(sp.coords).sum(axis=1)))
    res = solve_w2(sp, delta(sp, centre), uniform_on(sp, far))
    plan = assert_plan_matches(sp, res.coupling, chebyshev_times(65))
    assert len(plan.atoms) >= len(far)


def test_necklace_schedule_plan_matches_the_oracle():
    sp = necklace(NecklaceParams(beads=((0.4, 0.3), (1.1, 0.3)),
                                 resolution=HALF_PI / 320))
    _, fx, _, fcount, fstart, _ = necklace_fibers(sp)
    src_f = int(np.argmin(np.abs(fx - 0.38)))
    source = int(fstart[src_f] + fcount[src_f] // 2)
    sched = necklace_schedule(sp, source, int(np.argmin(np.abs(fx - 1.06))), 2)
    plan = sched.plan
    samples = sorted(set(chebyshev_times().tolist())
                     | {sched.t_spread, sched.t_flat_start, sched.t_flat_end})
    assert mcp_check(sp, plan, t_samples=samples) == mcp_oracle(
        sp, plan, t_samples=samples)
    dens = schedule_density_check(sp, sched)
    assert dens.rows == density_rows_oracle(sp, sched)
    assert dens.worst_slack == min(row[4] for row in dens.rows)
    # the density check's supports: node times and landmark times
    assert plan.times[:plan.starts[1]].tolist() == list(plan.atoms[0][0].times)
    for t in sorted(set(plan.atoms[0][0].times) | set(samples)):
        assert np.array_equal(np.unique(plan.nodes_at(t)),
                              sorted({evaluate(g, t) for g, _ in plan.atoms}))
    assert_evaluation_matches(sp, plan, samples)


@pytest.mark.parametrize("count", [1025, 4097])
def test_mcp_check_in_several_blocks_matches_the_oracle(monkeypatch, count):
    """A block of 7 times (the block constant shrunk to 7 rows of 60
    cells) splits 1,025 and 4,097 times into many blocks with a partial
    last one; the plan has an atom of length zero, so both branches of
    the coefficient run."""
    sp = segment_space(HALF_PI / 60)
    res = solve_w2(sp, delta(sp, 30), uniform_on(sp, range(25, 36)))
    plan = lift_to_geodesic_plan(sp, res.coupling)
    assert any(g.length == 0.0 for g, _ in plan.atoms)
    monkeypatch.setattr(contraction, "TRIANGLE_BLOCK", 7 * sp.n)
    blocks = []
    nodes_at = GeodesicPlan.nodes_at
    monkeypatch.setattr(GeodesicPlan, "nodes_at",
                        lambda self, t: blocks.append(len(t))
                        or nodes_at(self, t))
    times = chebyshev_times(count)
    assert mcp_check(sp, plan, t_samples=times) == mcp_oracle(
        sp, plan, t_samples=times)
    assert len(blocks) == -(-count // 7) and set(blocks) == {7, count % 7}
    # unsorted, repeated times sort first, in one block or in many
    shuffled = np.random.default_rng(count).permutation(
        np.concatenate([times[::5], times[::9]]))
    assert mcp_check(sp, plan, t_samples=shuffled) == mcp_oracle(
        sp, plan, t_samples=shuffled)


# === ties and empty plans ===

def test_halfway_times_go_to_the_smaller_time_like_evaluate():
    sp = segment_space(HALF_PI / 20)
    atoms = (
        (DiscreteGeodesic(nodes=(0, 1, 2, 3, 4),
                          times=(0.0, 0.25, 0.5, 0.75, 1.0), length=1.0), 0.25),
        (DiscreteGeodesic(nodes=(5, 9), times=(0.0, 1.0), length=0.5), 0.25),
        (DiscreteGeodesic(nodes=(10, 11, 12), times=(0.0, 0.1, 1.0),
                          length=0.3), 0.25),
        (DiscreteGeodesic(nodes=(13, 14, 15, 16),
                          times=(0.0, 0.25, 0.75, 1.0), length=0.9), 0.25),
    )
    plan = GeodesicPlan(atoms=atoms)
    nodes_at = plan.nodes_at
    # each is exactly halfway between two node times of some atom
    assert nodes_at(0.375).tolist() == [1, 5, 11, 14]
    assert nodes_at(0.5).tolist() == [2, 5, 11, 14]
    assert nodes_at(0.05).tolist() == [0, 5, 10, 13]
    assert nodes_at(0.125).tolist() == [0, 5, 11, 13]
    halfway = [0.125, 0.375, 0.625, 0.875, 0.5, 0.05, 0.55, 0.15, 0.85]
    assert_evaluation_matches(sp, plan, halfway + np.linspace(0, 1, 41).tolist())
    for bad in (1.5, math.nan, [0.5, -0.25], [0.5, math.nan]):
        with pytest.raises(ValueError, match=r"t must lie in \[0, 1\]"):
            nodes_at(bad)
    with pytest.raises(ValueError, match="1-D array"):
        nodes_at(np.full((2, 2), 0.5))


def ulp_runs(start, size):
    """``size`` floats from ``start`` up, one ulp apart."""
    out = [start]
    for _ in range(size - 1):
        out.append(math.nextafter(out[-1], 2.0))
    return out


@st.composite
def chains_and_times(draw):
    """A plan of 1-4 atoms whose interior node times include runs one
    ulp apart, and times to place it at: node times, their neighbours
    one ulp away, exact midpoints of neighbouring node times, 0, 1 and
    free draws, repeated and in no order."""
    unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    atoms = []
    for _ in range(draw(st.integers(1, 4))):
        interior = []
        for start in draw(st.lists(unit, max_size=5)):
            interior += ulp_runs(start, draw(st.integers(1, 4)))
        times = [0.0] + sorted({t for t in interior if 0.0 < t < 1.0}) + [1.0]
        nodes = draw(st.lists(st.integers(0, 30), min_size=len(times),
                              max_size=len(times)))
        atoms.append(DiscreteGeodesic(nodes=tuple(nodes), times=tuple(times),
                                      length=1.0))
    node_times = sorted({t for g in atoms for t in g.times})
    pool = (node_times
            + [math.nextafter(t, 2.0) for t in node_times[:-1]]
            + [math.nextafter(t, -1.0) for t in node_times[1:]]
            + [(a + b) / 2 for a, b in zip(node_times, node_times[1:])]
            + [0.0, 1.0])
    ts = draw(st.lists(st.sampled_from(pool) | unit, min_size=1, max_size=12))
    plan = GeodesicPlan(atoms=tuple((g, 1.0 / len(atoms)) for g in atoms))
    return plan, ts


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(case=chains_and_times())
def test_array_nodes_at_follows_evaluate(case):
    plan, ts = case
    want = [[evaluate(g, t) for g, _ in plan.atoms] for t in ts]
    assert plan.nodes_at(np.asarray(ts)).tolist() == want
    assert [plan.nodes_at(t).tolist() for t in ts] == want


def test_a_run_of_equal_rounded_gaps_goes_to_its_first_time():
    """Node times one ulp apart at 0.1 are all 0.35 away from t = 0.45
    after rounding; ``evaluate`` takes the first of them, so the batched
    rule must walk left past the node right before t."""
    run = ulp_runs(0.1, 3)
    g = DiscreteGeodesic(nodes=(0, 1, 2, 3, 4), times=(0.0, *run, 1.0),
                         length=1.0)
    assert len({0.45 - t for t in run}) == 1
    plan = GeodesicPlan(atoms=((g, 1.0),))
    assert evaluate(g, 0.45) == 1
    assert plan.nodes_at(0.45).tolist() == [1]
    assert plan.nodes_at(np.array([0.45, run[2], 0.0, 1.0])).tolist() == [
        [1], [3], [0], [4]]


def test_an_empty_coupling_lifts_to_an_empty_plan():
    sp = segment_space(HALF_PI / 20)
    empty = Coupling(source_idx=np.array([0, 1]), target_idx=np.array([5]),
                     matrix=np.zeros((2, 1)))
    plan = lift_to_geodesic_plan(sp, empty)
    assert plan == lift_oracle(sp, empty) == GeodesicPlan()
    assert plan.nodes_at(0.5).size == 0
    assert plan.nodes_at(np.linspace(0.0, 1.0, 3)).shape == (3, 0)
    assert_packing_matches(sp, plan)
    assert np.array_equal(pushforward_at(sp, plan, 0.5), np.zeros(sp.n))
    for check in (mcp_check, mcp_oracle):
        with pytest.raises(ValueError, match="single cell"):
            check(sp, plan)
