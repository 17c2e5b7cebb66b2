"""End-to-end acceptance gate.

Each test exercises one advertised capability at its stated tolerance
and time budget and prints a single PASS or FAIL line so a plain test
run doubles as a checklist.  The fixed-mass clause of criterion 5 is
known not to hold as stated and the test records the measured
violations rather than weakening the assertion.
"""

import itertools
import math
import time

import numpy as np
import pytest

from mmslab import (
    EuclideanIsometry,
    FiniteMMS,
    NecklaceParams,
    as_measure,
    brute_force_w2,
    chebyshev_times,
    condition_a_scan,
    delta,
    enumerate_isometries,
    epsilon_regular_scan,
    euclidean_ball_grid,
    euclidean_power_escape,
    fixed_set,
    generate_subgroup,
    gh_exact,
    hawaiian_truncation,
    lift_to_geodesic_plan,
    mcp_check,
    necklace,
    necklace_schedule,
    scalar_bound,
    scale,
    schedule_density_check,
    segment_space,
    small_subgroup_probe,
    solve_w2,
    symmetrized_competitor,
    uniform_on,
    uniqueness_probe,
    verify_competitor,
)
from mmslab.generators import necklace_fibers

HALF_PI = math.pi / 2.0


def announce(capsys, num, ok, detail, elapsed, budget):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"criterion {num:2d}: {verdict} ({detail}) "
              f"[{elapsed:.1f}s of {budget:.0f}s]")


def cloud(rng, n, spread=1.0):
    pts = rng.uniform(0.0, spread, size=(n, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    return FiniteMMS(dist=np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)),
                     weight=np.ones(n))


def circle_reflection(space, k):
    """Reflection of circle k of a wedge space about the base axis."""
    m = space.meta["cells_per_circle"]
    first = 1 + k * (m - 1)         # circle k holds m - 1 cells from here
    perm = np.arange(space.n)
    perm[first:first + m - 1] = perm[first + m - 2:first - 1:-1]
    return perm


def quarter_targets(space):
    return [i for i in range(space.n) if space.coords[i, 0] >= math.pi / 4]


def test_criterion_01_transport_dual_route(capsys):
    budget = 5.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(200):
        sp = cloud(rng, int(rng.integers(2, 8)),
                   spread=float(rng.uniform(0.5, 2.0)))
        si = rng.choice(sp.n, size=int(rng.integers(1, 6)) if sp.n >= 5
                        else int(rng.integers(1, sp.n + 1)), replace=False)
        ti = rng.choice(sp.n, size=int(rng.integers(1, 6)) if sp.n >= 5
                        else int(rng.integers(1, sp.n + 1)), replace=False)
        mu0 = as_measure(sp, {int(i): float(rng.uniform(0.2, 1.0))
                              for i in si})
        mu1 = as_measure(sp, {int(i): float(rng.uniform(0.2, 1.0))
                              for i in ti})
        mu0, mu1 = mu0 / mu0.sum(), mu1 / mu1.sum()
        worst = max(worst, abs(solve_w2(sp, mu0, mu1).cost
                               - brute_force_w2(sp, mu0, mu1)))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < budget
    announce(capsys, 1, ok, f"200 instances, worst |delta| {worst:.2e}",
             dt, budget)
    assert worst <= 1e-9
    assert dt < budget


def test_criterion_02_scalar_estimate(capsys):
    budget = 10.0
    t0 = time.perf_counter()
    rep = scalar_bound(t_max=0.2, d_max=HALF_PI + 0.25, samples=2000)
    dt = time.perf_counter() - t0
    ok = rep.min_margin >= -1e-12 and dt < budget
    announce(capsys, 2, ok,
             f"2000x2000 grid, min margin {rep.min_margin:+.3e}", dt, budget)
    assert rep.ok
    assert rep.min_margin >= -1e-12
    assert dt < budget


def test_criterion_03_contraction_halving(capsys):
    budget = 30.0
    t0 = time.perf_counter()
    defects = []
    times = chebyshev_times(129)
    for h in (math.pi / 200, math.pi / 400, math.pi / 800):
        sp = segment_space(h)
        res = solve_w2(sp, delta(sp, 0), uniform_on(sp, quarter_targets(sp)))
        plan = lift_to_geodesic_plan(sp, res.coupling)
        rep = mcp_check(sp, plan, t_samples=times)
        assert rep.ok and rep.allowance == pytest.approx(8.0 * h)
        assert rep.worst_slack < 0
        defects.append(-rep.worst_slack)
    ratios = [defects[i] / defects[i + 1] for i in range(2)]
    dt = time.perf_counter() - t0
    ok = min(ratios) >= 1.5 and dt < budget
    announce(capsys, 3, ok,
             "halving ratios " + " ".join(f"{r:.2f}" for r in ratios),
             dt, budget)
    assert min(ratios) >= 1.5
    assert dt < budget


def test_criterion_04_necklace_schedule(capsys):
    budget = 60.0
    t0 = time.perf_counter()
    sp = necklace(NecklaceParams(beads=((0.4, 0.3), (1.1, 0.3)),
                                 resolution=HALF_PI / 320))
    _, fx, _, fcount, fstart, _ = necklace_fibers(sp)
    src_f = int(np.argmin(np.abs(fx - 0.38)))
    source = int(fstart[src_f] + fcount[src_f] // 2)
    target_f = int(np.argmin(np.abs(fx - 1.06)))
    sched = necklace_schedule(sp, source, target_f, 2)
    rep = schedule_density_check(sp, sched)
    dt = time.perf_counter() - t0

    row_times = {round(r[0], 12) for r in rep.rows}
    landmarks_sampled = all(
        round(t, 12) in row_times
        for t in (sched.t_spread, sched.t_flat_start, sched.t_flat_end))
    ok = (rep.all_ok and rep.marginal_defect <= 1e-9
          and landmarks_sampled and len(rep.rows) >= 33 and dt < budget)
    announce(capsys, 4, ok,
             f"marginal defect {rep.marginal_defect:.1e}, "
             f"{len(rep.rows)} sampled times, "
             f"worst slack {rep.worst_slack:+.2e}", dt, budget)
    assert rep.ok and rep.heights_ok
    assert rep.marginal_defect <= 1e-9
    assert rep.allowance == pytest.approx(8.0 * sp.pitch())
    assert landmarks_sampled
    assert len(rep.rows) >= 33
    assert dt < budget


def test_criterion_05_earring_symmetries(capsys):
    budget = 120.0
    t0 = time.perf_counter()
    sp = hawaiian_truncation(6, 64)
    res = enumerate_isometries(sp, iso_tol=1e-9)
    maps_ok = len(res.maps) == 64 and res.complete
    defects_ok = all(m.measure_defect <= 1e-9 for m in res.maps)
    closure = generate_subgroup(sp, [m.perm for m in res.maps])
    closure_ok = closure.closed and len(closure) == 64

    # fixed-mass clause, taken literally: every nonidentity map keeps at
    # least the total minus the largest circle, up to one coarse cell
    total = sp.total_mass
    err = 2.0 * math.pi / 64
    identity = np.arange(sp.n)
    fix_masses = [fixed_set(sp, m.perm, fix_tol=1e-9).mass
                  for m in res.maps if not np.array_equal(m.perm, identity)]
    violations = sum(mass < total - 2.0 * math.pi + err
                     for mass in fix_masses)
    dt = time.perf_counter() - t0

    ok = (maps_ok and defects_ok and closure_ok and violations == 0
          and dt < budget)
    announce(capsys, 5, ok,
             f"64 maps, closure order {len(closure)}, fixed-mass clause "
             f"violated by {violations} of {len(fix_masses)} nonidentity "
             f"maps", dt, budget)
    assert maps_ok
    assert defects_ok
    assert closure_ok
    assert dt < budget
    # flipping the largest circle together with any other drops the fixed
    # mass below the stated floor, so this clause cannot hold as written
    assert violations == 0


def test_criterion_06_nonuniqueness_certificate(capsys):
    budget = 10.0
    t0 = time.perf_counter()
    sp = hawaiian_truncation(3, 24)
    perm = circle_reflection(sp, 0)
    m = sp.meta["cells_per_circle"]
    source = [1 + (m - 1) + j for j in range(3, 7)]
    x = 5
    mu0 = uniform_on(sp, source)
    mu1 = as_measure(sp, {x: 0.5, int(perm[x]): 0.5})
    plan = lift_to_geodesic_plan(sp, solve_w2(sp, mu0, mu1).coupling)
    comp = symmetrized_competitor(sp, perm, plan, x=x, iso_tol=1e-9)
    rep = verify_competitor(sp, plan, comp, tol=1e-9)
    probe = uniqueness_probe(sp, mu0, mu1)
    dt = time.perf_counter() - t0

    ok = (rep.ok and rep.marginal_defect <= 1e-9 and rep.cost_defect <= 1e-9
          and not probe.unique and dt < budget)
    announce(capsys, 6, ok,
             f"defects ({rep.marginal_defect:.1e}, {rep.cost_defect:.1e}), "
             f"plans differ by {rep.plan_difference:.2f}, probe deviation "
             f"{probe.deviation:.2e}", dt, budget)
    assert rep.marginals_equal and rep.cost_equal and rep.distinct
    assert rep.marginal_defect <= 1e-9 and rep.cost_defect <= 1e-9
    assert not probe.unique
    assert dt < budget


def test_criterion_07_small_subgroup_probe(capsys):
    budget = 60.0
    t0 = time.perf_counter()
    sp = hawaiian_truncation(8, 64)
    eps = 2.0 * math.pi / 64
    hit = small_subgroup_probe(
        sp, eps, maps=enumerate_isometries(sp, iso_tol=1e-9))
    grid = euclidean_ball_grid(2, 1.0, 1.0 / 8)
    miss = small_subgroup_probe(
        grid, 0.01 * 1.0, maps=enumerate_isometries(grid, iso_tol=1e-9))
    dt = time.perf_counter() - t0

    ok = (hit.found and hit.sup_displacement < eps
          and not miss.found and not miss.inconclusive and dt < budget)
    announce(capsys, 7, ok,
             f"chain: order {hit.subgroup and len(hit.subgroup)} subgroup "
             f"moving {hit.sup_displacement:.3f} < {eps:.3f}; grid: none "
             f"found", dt, budget)
    assert hit.found and len(hit.subgroup) > 1
    assert hit.sup_displacement < eps
    assert not miss.found and not miss.inconclusive
    assert dt < budget


def rotation2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def rotation3(axis, theta):
    k = np.asarray(axis, dtype=float)
    k /= np.linalg.norm(k)
    kx = np.array([[0.0, -k[2], k[1]],
                   [k[2], 0.0, -k[0]],
                   [-k[1], k[0], 0.0]])
    return np.eye(3) + math.sin(theta) * kx + (1 - math.cos(theta)) * kx @ kx


def small_motion(rng, k):
    """Random rigid motion with initial half-ball displacement inside
    (1e-4, 1e-2), split between a rotation and a translation."""
    while True:
        target = math.exp(rng.uniform(math.log(3e-4), math.log(8e-3)))
        f = float(rng.uniform(0.15, 0.85))
        theta = 2.0 * f * target
        q = (rotation2(theta) if k == 2
             else rotation3(rng.standard_normal(3), theta))
        u = rng.standard_normal(k)
        iso = EuclideanIsometry(
            q=q, v=(1.0 - f) * target * u / np.linalg.norm(u))
        d1 = euclidean_power_escape(iso, threshold=5e-324,
                                    max_pow=1).displacement
        if 1e-4 < d1 < 1e-2:
            return iso


def test_criterion_08_power_escape(capsys):
    budget = 30.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_n, failures = 0, 0
    for i in range(1000):
        iso = small_motion(rng, 2 if i % 2 == 0 else 3)
        res = euclidean_power_escape(iso, threshold=1.0 / 20, max_pow=10**6)
        if not (res.found and res.n <= 10**6 and res.displacement >= 1 / 20):
            failures += 1
        worst_n = max(worst_n, res.n)
    dt = time.perf_counter() - t0
    ok = failures == 0 and dt < budget
    announce(capsys, 8, ok,
             f"1000/1000 escaped, largest index {worst_n}", dt, budget)
    assert failures == 0
    assert dt < budget


def test_criterion_09_gh_sanity(capsys):
    budget = 10.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    x = cloud(rng, 6)
    self_dist, _ = gh_exact(x, x)

    a = FiniteMMS(dist=np.array([[0.0, 1.0], [1.0, 0.0]]), weight=np.ones(2))
    b = FiniteMMS(dist=np.array([[0.0, 1.6], [1.6, 0.0]]), weight=np.ones(2))
    pair_dist, _ = gh_exact(a, b)

    worst = 0.0
    for _ in range(50):
        u = cloud(rng, int(rng.integers(3, 7)))
        v = cloud(rng, int(rng.integers(3, 7)))
        lam = float(rng.uniform(0.3, 3.0))
        base, _ = gh_exact(u, v)
        scaled, _ = gh_exact(scale(u, 1.0 / lam), scale(v, 1.0 / lam))
        worst = max(worst, abs(scaled - lam * base) / max(lam * base, 1e-30))
    dt = time.perf_counter() - t0

    ok = (self_dist == 0.0 and abs(pair_dist - 0.3) <= 1e-12
          and worst <= 1e-9 and dt < budget)
    announce(capsys, 9, ok,
             f"self 0, pair {pair_dist:.12f}, scaling defect {worst:.1e}",
             dt, budget)
    assert self_dist == 0.0
    assert pair_dist == pytest.approx(0.3, abs=1e-12)
    assert worst <= 1e-9
    assert dt < budget


def test_criterion_10_regularity_scan(capsys):
    budget = 60.0
    t0 = time.perf_counter()
    seg = segment_space(HALF_PI / 1600)
    interior = int(np.argmin(np.abs(seg.coords[:, 0] - math.pi / 4)))
    rep_in = epsilon_regular_scan(seg, interior, eps=0.1, delta=0.4,
                                  k_set=(1,))

    sp = necklace(NecklaceParams(beads=((0.7, 0.3),),
                                 resolution=HALF_PI / 2560))
    _, fx, _, _, fstart, bead = necklace_fibers(sp)
    tip = 0.7 - 0.3 / 4.0
    spine = np.flatnonzero((bead < 0) & (fx < tip))
    vertex_cell = int(fstart[spine[np.argmax(fx[spine])]])
    rep_out = epsilon_regular_scan(sp, vertex_cell, eps=0.02, delta=0.06,
                                   k_set=(1,), subsample=10)
    out_rows = [r for r in rep_out.rows if r.verdict == "out"]
    margin = min((r.estimate - 0.02 * r.r - r.err_verdict for r in out_rows),
                 default=-1.0)
    dt = time.perf_counter() - t0

    ok = (rep_in.verdict(1) == "in" and rep_out.verdict(1) == "out"
          and margin > 0 and dt < budget)
    announce(capsys, 10, ok,
             f"interior in, vertex out on {len(out_rows)} radii, margin "
             f"past the error bound {margin:+.2e}", dt, budget)
    assert rep_in.verdict(1) == "in"
    assert all(r.verdict == "in" for r in rep_in.rows)
    assert rep_out.verdict(1) == "out"
    assert margin > 0
    assert dt < budget


def test_criterion_11_condition_a(capsys):
    budget = 30.0
    t0 = time.perf_counter()
    sp = hawaiian_truncation(6, 64)
    rep = condition_a_scan(sp, 0, 2.0 * sp.diameter, fix_tol=1e-9,
                           maps=enumerate_isometries(sp, iso_tol=1e-9))
    smallest = 2.0 * math.pi / 36
    resolution_error = 4.0 * smallest / 64
    dt = time.perf_counter() - t0

    ok = (rep.holds and not rep.vacuous and rep.complete
          and abs(rep.gap - smallest) <= resolution_error and dt < budget)
    announce(capsys, 11, ok,
             f"gap {rep.gap:.6f} vs smallest circle {smallest:.6f}",
             dt, budget)
    assert rep.holds and rep.complete and not rep.vacuous
    assert rep.fix_sup < rep.ball_mass
    assert rep.gap == pytest.approx(smallest, abs=resolution_error)
    assert dt < budget
