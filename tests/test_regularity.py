import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmslab import (
    FiniteMMS,
    NecklaceParams,
    ball_indices,
    circle_space,
    correspondence_distortion,
    epsilon_regular_scan,
    euclidean_ball_grid,
    gh_exact,
    gh_lower_bound,
    necklace,
    radius_levels,
    regular_set_measure,
    scale,
    segment_space,
)
from mmslab.generators import necklace_fibers
from mmslab import regularity
from mmslab.regularity import (MAX_R_SAMPLES, GHCorrespondence, _fps,
                               _model_ball)

HALF_PI = math.pi / 2.0


def cloud_space(points):
    pts = np.asarray(points, dtype=float)
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    return FiniteMMS(dist=dist, weight=np.ones(len(pts)))


def random_cloud(rng, n, spread=1.0):
    return cloud_space(rng.uniform(0.0, spread, size=(n, 2)))


def two_point_space(diam):
    return FiniteMMS(dist=np.array([[0.0, diam], [diam, 0.0]]),
                     weight=np.ones(2))


def brute_force_gh(x, y):
    """Minimum distortion over every pair of maps f: X -> Y, g: Y -> X,
    with the g side enumerated as one vectorized block per f."""
    nx, ny = x.n, y.n
    dx, dy = x.dist, y.dist
    all_g = np.array(list(itertools.product(range(nx), repeat=ny)))
    gg = np.max(np.abs(dx[all_g[:, :, None], all_g[:, None, :]] - dy), axis=(1, 2))
    best = math.inf
    for f in itertools.product(range(ny), repeat=nx):
        fidx = np.array(f)
        ff = np.max(np.abs(dx - dy[np.ix_(fidx, fidx)]))
        cross = np.abs(dx[:, all_g] - dy[fidx][:, None, :])
        fg = np.max(cross, axis=(0, 2))
        cand = np.maximum(np.maximum(ff, gg), fg)
        best = min(best, float(cand.min()))
    return best / 2.0


def gh_two_walk_oracle(x, y):
    """The search ``gh_exact`` replaced, kept as an oracle: one walk over
    the forward map's rows that hands over to a mirrored walk over the
    backward map's columns, and a greedy warm start in two loops."""
    nx, ny = x.n, y.n
    dx, dy = x.dist, y.dist
    order_x = np.argsort(-dx.max(axis=1), kind="stable")
    order_y = np.argsort(-dy.max(axis=1), kind="stable")
    f = np.full(nx, -1)
    g = np.full(ny, -1)

    def extend(pair, i, j):
        return np.maximum(pair, np.abs(dx[:, i][:, None] - dy[:, j][None, :]))

    def relax(pair):
        return max(float(np.max(np.min(pair, axis=0))),
                   float(np.max(np.min(pair, axis=1))))

    pair0 = np.zeros((nx, ny))
    for i in order_x:
        f[i] = int(np.argmin(pair0[i]))
        pair0 = extend(pair0, i, f[i])
    for j in order_y:
        g[j] = int(np.argmin(pair0[:, j]))
        pair0 = extend(pair0, g[j], j)
    seed = sorted({(int(i), int(f[i])) for i in range(nx)}
                  | {(int(g[j]), int(j)) for j in range(ny)})
    best = correspondence_distortion(x, y, seed)
    best_pair = (f.copy(), g.copy())
    f[:] = -1
    g[:] = -1
    floor = 2.0 * gh_lower_bound(x, y)
    done = best <= floor + 1e-15

    def walk_g(depth, cur, pair):
        nonlocal best, best_pair, done
        if depth == ny:
            best = cur
            best_pair = (f.copy(), g.copy())
            done = best <= floor + 1e-15
            return
        j = order_y[depth]
        cost = pair[:, j]
        for i in np.argsort(cost, kind="stable"):
            if done:
                return
            v = max(cur, float(cost[i]))
            if v >= best:
                break
            grown = extend(pair, i, j)
            if max(v, relax(grown)) < best:
                g[j] = i
                walk_g(depth + 1, v, grown)
        g[j] = -1

    def walk_f(depth, cur, pair):
        if depth == nx:
            walk_g(0, cur, pair)
            return
        i = order_x[depth]
        cost = pair[i]
        for j in np.argsort(cost, kind="stable"):
            if done:
                return
            v = max(cur, float(cost[j]))
            if v >= best:
                break
            grown = extend(pair, i, j)
            if max(v, relax(grown)) < best:
                f[i] = j
                walk_f(depth + 1, v, grown)
        f[i] = -1

    if not done:
        walk_f(0, 0.0, np.zeros((nx, ny)))
    ff, gg = best_pair
    relation = sorted({(int(i), int(ff[i])) for i in range(nx)}
                      | {(int(gg[j]), int(j)) for j in range(ny)})
    distortion = correspondence_distortion(x, y, relation)
    return distortion / 2.0, GHCorrespondence(relation=tuple(relation),
                                              distortion=distortion)


def segment_interior_cell(space):
    return int(np.argmin(np.abs(space.coords[:, 0] - math.pi / 4.0)))


def necklace_tip_cell(space, center, radius):
    """Spine cell nearest the left tip of the bead at ``center``."""
    _, fx, _, _, fstart, bead = necklace_fibers(space)
    tip = center - radius / 4.0
    spine = np.flatnonzero((bead < 0) & (fx < tip))
    return int(fstart[spine[np.argmax(fx[spine])]])


# === exact distance ===

def test_gh_identity_with_identity_witness():
    rng = np.random.default_rng(3)
    x = random_cloud(rng, 6)
    value, witness = gh_exact(x, x)
    assert value == 0.0
    assert witness.distortion == 0.0
    assert witness.relation == tuple((i, i) for i in range(6))


def test_gh_two_point_spaces_half_diameter_gap():
    x = two_point_space(1.0)
    y = two_point_space(1.6)
    value, witness = gh_exact(x, y)
    assert value == pytest.approx(0.3, abs=1e-12)
    assert witness.distortion == pytest.approx(0.6, abs=1e-12)
    # oracle: the seven correspondences covering both two-point sets
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    best = math.inf
    for take in itertools.product((False, True), repeat=4):
        rel = [p for p, t in zip(pairs, take) if t]
        if {p[0] for p in rel} != {0, 1} or {p[1] for p in rel} != {0, 1}:
            continue
        best = min(best, correspondence_distortion(x, y, rel))
    assert value == pytest.approx(best / 2.0, abs=1e-15)


def test_gh_matches_brute_force_on_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = random_cloud(rng, int(rng.integers(2, 5)),
                         spread=float(rng.uniform(0.5, 2.0)))
        y = random_cloud(rng, int(rng.integers(2, 5)),
                         spread=float(rng.uniform(0.5, 2.0)))
        value, witness = gh_exact(x, y)
        assert value == pytest.approx(brute_force_gh(x, y), abs=1e-12)
        assert witness.distortion == 2.0 * value
        cover_x = {p[0] for p in witness.relation}
        cover_y = {p[1] for p in witness.relation}
        assert cover_x == set(range(x.n)) and cover_y == set(range(y.n))


def test_gh_single_walk_matches_the_two_walk_oracle():
    rng = np.random.default_rng(41)
    pairs = [(random_cloud(rng, int(rng.integers(2, 9)),
                           spread=float(rng.uniform(0.5, 2.0))),
              random_cloud(rng, int(rng.integers(2, 9)),
                           spread=float(rng.uniform(0.5, 2.0))))
             for _ in range(24)]
    # 6- and 7-point planar clouds against spatial ones
    pairs += [(random_cloud(rng, 6 + k % 2),
               cloud_space(rng.uniform(0.0, 1.0, size=(6 + k // 2 % 2, 3))))
              for k in range(8)]
    for x, y in pairs:
        value, witness = gh_exact(x, y)
        want, want_witness = gh_two_walk_oracle(x, y)
        assert value == want
        assert witness.relation == want_witness.relation
        assert witness.distortion == want_witness.distortion


def fps_ball(space, x, r, count):
    """The scan's reduction of the ball B(x, r): ``count`` points by
    farthest-point sampling from the center."""
    bidx = ball_indices(space, x, r)
    dsub = space.dist[np.ix_(bidx, bidx)]
    start = int(np.flatnonzero(bidx == x)[0])
    sel, _ = _fps(lambda i: dsub[i], len(bidx), start, count)
    return FiniteMMS(dist=dsub[np.ix_(sel, sel)], weight=np.ones(len(sel)))


def fps_model(k, r, pitch, count):
    pts, origin, _ = _model_ball(k, r, pitch)
    sel, _ = _fps(lambda i: np.linalg.norm(pts - pts[i], axis=1), len(pts),
                  origin, count)
    return cloud_space(pts[sel])


def test_gh_matches_the_two_walk_oracle_on_tied_inputs():
    """Lattice samples repeat distances, so the stable sort of a node's
    children meets ties: there a batched children step could pick
    another witness of the same value without the random pairs noticing."""
    seg = segment_space(HALF_PI / 400)
    neck = necklace(NecklaceParams(beads=((0.8, 0.3),),
                                   resolution=HALF_PI / 120))
    tip = necklace_tip_cell(neck, 0.8, 0.3)
    bead = int(np.argmin(np.abs(neck.coords[:, 0] - 0.8)
                         + np.abs(neck.coords[:, 1])))
    balls = [(seg, segment_interior_cell(seg), 0.1), (seg, 0, 0.1),
             (neck, tip, 0.1), (neck, bead, 0.2)]
    pairs = []
    for count in (6, 7, 8):
        # 3-D models past six points take seconds for the oracle
        dims = (1, 2, 3) if count == 6 else (1, 2)
        for space, x, r in balls:
            sx = fps_ball(space, x, r, count)
            for k in dims:
                pairs.append((sx, fps_model(k, r, space.pitch(), count)))
        pairs.append((fps_model(2, 0.1, 0.0, count),
                      fps_model(3, 0.1, 0.0, count)))
    tied = 0
    for x, y in pairs:
        tied += len(np.unique(x.dist)) < x.n * (x.n - 1) // 2 + 1
        value, witness = gh_exact(x, y)
        want, want_witness = gh_two_walk_oracle(x, y)
        assert value == want
        assert witness.relation == want_witness.relation
        assert witness.distortion == want_witness.distortion
    assert tied == len(pairs)


def test_gh_scaling_equivariance():
    rng = np.random.default_rng(19)
    for _ in range(50):
        x = random_cloud(rng, int(rng.integers(3, 7)))
        y = random_cloud(rng, int(rng.integers(3, 7)))
        lam = float(rng.uniform(0.3, 3.0))
        base, _ = gh_exact(x, y)
        scaled, _ = gh_exact(scale(x, 1.0 / lam), scale(y, 1.0 / lam))
        assert scaled == pytest.approx(lam * base, rel=1e-9, abs=1e-12)


def test_gh_symmetric():
    rng = np.random.default_rng(23)
    for _ in range(20):
        x = random_cloud(rng, int(rng.integers(3, 7)))
        y = random_cloud(rng, int(rng.integers(3, 7)))
        ab, _ = gh_exact(x, y)
        ba, _ = gh_exact(y, x)
        assert ab == pytest.approx(ba, abs=1e-12)


def test_gh_triangle_inequality_on_random_triples():
    rng = np.random.default_rng(29)
    for _ in range(15):
        x = random_cloud(rng, 5)
        y = random_cloud(rng, 5)
        z = random_cloud(rng, 5)
        xz, _ = gh_exact(x, z)
        xy, _ = gh_exact(x, y)
        yz, _ = gh_exact(y, z)
        assert xz <= xy + yz + 1e-9


@st.composite
def planar_clouds(draw):
    """A cloud of 2-5 planar points, on a 1/3 lattice half the time
    (repeated distances and points).  Six or more points are left out:
    single 8-point pairs take seconds."""
    coord = draw(st.sampled_from([
        st.floats(0.0, 1.0),
        st.integers(0, 3).map(lambda v: v / 3)]))
    return cloud_space(draw(st.lists(st.tuples(coord, coord),
                                     min_size=2, max_size=5)))


GH_PROPERTY = settings(derandomize=True, database=None, max_examples=100,
                       deadline=None)


@GH_PROPERTY
@given(x=planar_clouds(), y=planar_clouds(), lam=st.floats(0.3, 3.0))
def test_gh_scales_with_drawn_clouds(x, y, lam):
    base, _ = gh_exact(x, y)
    scaled, _ = gh_exact(scale(x, 1.0 / lam), scale(y, 1.0 / lam))
    assert scaled == pytest.approx(lam * base, rel=1e-9, abs=1e-12)


@GH_PROPERTY
@given(x=planar_clouds(), y=planar_clouds())
def test_gh_is_symmetric_and_above_its_lower_bound_on_drawn_clouds(x, y):
    ab, _ = gh_exact(x, y)
    ba, _ = gh_exact(y, x)
    assert ab == pytest.approx(ba, abs=1e-12)
    assert gh_lower_bound(x, y) <= ab + 1e-12


@GH_PROPERTY
@given(x=planar_clouds(), y=planar_clouds(), z=planar_clouds())
def test_gh_triangle_inequality_on_drawn_clouds(x, y, z):
    xz, _ = gh_exact(x, z)
    xy, _ = gh_exact(x, y)
    yz, _ = gh_exact(y, z)
    assert xz <= xy + yz + 1e-9


def test_gh_size_budget():
    rng = np.random.default_rng(31)
    big = random_cloud(rng, 9)
    with pytest.raises(ValueError):
        gh_exact(big, big)
    value, _ = gh_exact(big, big, size_limit=9)
    assert value == 0.0


# === lower bound ===

def test_lower_bound_zero_on_equal_spaces():
    rng = np.random.default_rng(37)
    x = random_cloud(rng, 6)
    assert gh_lower_bound(x, x) == 0.0


def test_lower_bound_sees_diameter_gap():
    assert gh_lower_bound(two_point_space(1.0), two_point_space(3.0)) >= 1.0


def test_lower_bound_below_exact_on_random_pairs():
    rng = np.random.default_rng(41)
    for _ in range(100):
        x = random_cloud(rng, 6)
        y = random_cloud(rng, 6, spread=float(rng.uniform(0.5, 1.5)))
        value, _ = gh_exact(x, y)
        assert gh_lower_bound(x, y) <= value + 1e-12


# === sampling helpers ===

def test_fps_covers_with_reported_radius():
    rng = np.random.default_rng(43)
    sp = random_cloud(rng, 40)
    sel, rho = _fps(lambda i: sp.dist[i], sp.n, 0, 8)
    assert sel[0] == 0
    assert len(sel) == 8 and len(set(sel)) == 8
    brute = np.max(np.min(sp.dist[:, sel], axis=1))
    assert rho == pytest.approx(brute, abs=1e-15)
    _, rho4 = _fps(lambda i: sp.dist[i], sp.n, 0, 4)
    assert rho <= rho4 + 1e-15


def test_model_ball_matches_space_lattice_in_1d():
    pts, origin, pitch = _model_ball(1, 0.1, 1e-3)
    assert pitch == 1e-3
    assert pts[origin, 0] == 0.0
    assert len(pts) == 2 * 100 + 1
    offsets = np.sort(pts[:, 0]) / pitch
    assert np.allclose(offsets, np.arange(-100, 101), atol=1e-9)


def test_model_ball_2d_grid_inside_radius():
    pts, origin, pitch = _model_ball(2, 0.5, 1e-3)
    assert pitch == pytest.approx(0.5 / 24)
    norms = np.linalg.norm(pts, axis=1)
    assert norms[origin] == 0.0
    assert np.all(norms <= 0.5 + 1e-9)
    assert len(pts) > 0.7 * math.pi * 24 * 24  # most of the disk survives


def test_radius_levels_geometric_ladder():
    levels = radius_levels(0.4, 12)
    assert len(levels) == 12
    assert levels[0] == pytest.approx(0.4 / 16.0)
    assert levels[-1] < 0.4
    ratios = levels[1:] / levels[:-1]
    assert np.allclose(ratios, ratios[0])


# === the regular-point scan ===

def test_scan_segment_interior_in_for_k1():
    sp = segment_space(HALF_PI / 1600)
    rep = epsilon_regular_scan(sp, segment_interior_cell(sp),
                               eps=0.1, delta=0.4, k_set=(1,))
    assert rep.verdict(1) == "in"
    assert all(row.verdict == "in" for row in rep.rows)
    # ball and model share a lattice, so the estimate is pure float dust
    assert max(row.estimate for row in rep.rows) < 1e-12
    assert not rep.degenerate


def test_scan_rows_follow_the_threshold_rule():
    sp = segment_space(HALF_PI / 1600)
    rep = epsilon_regular_scan(sp, 0, eps=0.1, delta=0.32, k_set=(1,))
    for row in rep.rows:
        gate = rep.epsilon * row.r
        if row.verdict == "in":
            assert row.estimate + row.err_verdict < gate
        elif row.verdict == "out":
            assert row.estimate - row.err_verdict >= gate
        else:
            assert row.estimate + row.err_verdict >= gate
            assert row.estimate - row.err_verdict < gate
        assert row.err_sound == pytest.approx(row.rho_x + row.rho_e)


def test_scan_segment_end_cell_out():
    """A half ball looks like an interval of half the radius, so the end
    cell fails at every radius where discretization allows a verdict."""
    sp = segment_space(HALF_PI / 1600)
    rep = epsilon_regular_scan(sp, 0, eps=0.1, delta=0.32, k_set=(1,))
    assert rep.verdict(1) == "out"
    out_rows = [row for row in rep.rows if row.verdict == "out"]
    assert out_rows
    for row in out_rows:
        assert row.ratio == pytest.approx(0.5, abs=0.02)


def test_scan_monotone_in_eps():
    sp = segment_space(HALF_PI / 800)
    x = segment_interior_cell(sp)
    reps = {eps: epsilon_regular_scan(sp, x, eps=eps, delta=0.4, k_set=(1,))
            for eps in (0.05, 0.1, 0.2)}
    order = {"in": 2, "inconclusive": 1, "out": 0}
    for small, large in ((0.05, 0.1), (0.1, 0.2)):
        for a, b in zip(reps[small].rows, reps[large].rows):
            assert a.r == b.r
            if a.verdict == "in":
                assert b.verdict == "in"
            assert order[b.verdict] >= order[a.verdict] or a.verdict == "out"
        if reps[small].verdict(1) == "in":
            assert reps[large].verdict(1) == "in"


def test_scan_necklace_tip_out_for_k1():
    sp = necklace(NecklaceParams(beads=((0.7, 0.3),),
                                 resolution=HALF_PI / 1280))
    cell = necklace_tip_cell(sp, 0.7, 0.3)
    rep = epsilon_regular_scan(sp, cell, eps=0.02, delta=0.06, k_set=(1,),
                               subsample=10)
    assert rep.verdict(1) == "out"
    out_rows = [row for row in rep.rows if row.verdict == "out"]
    assert out_rows
    for row in out_rows:
        assert row.estimate - rep.epsilon * row.r >= row.err_verdict


def test_scan_necklace_tip_blind_at_coarse_subsample():
    """Eight farthest points of the tip ball all land on the spine and
    its lower edge (the off-axis corner enters tenth), so the sample is
    metrically an interval and the verdict honestly stays open."""
    sp = necklace(NecklaceParams(beads=((0.7, 0.3),),
                                 resolution=HALF_PI / 1280))
    cell = necklace_tip_cell(sp, 0.7, 0.3)
    rep = epsilon_regular_scan(sp, cell, eps=0.02, delta=0.06, k_set=(1,))
    assert rep.verdict(1) == "inconclusive"
    assert not any(row.verdict == "out" for row in rep.rows)


def test_scan_degenerate_when_every_ball_is_the_whole_space():
    sp = circle_space(1.0, 16)
    rep = epsilon_regular_scan(sp, 0, eps=0.1, delta=60.0, k_set=(1, 2))
    assert rep.degenerate
    assert rep.verdict(1) == "inconclusive"
    assert rep.verdict(2) == "inconclusive"


def test_scan_rejects_bad_thresholds():
    sp = circle_space(1.0, 16)
    with pytest.raises(ValueError):
        epsilon_regular_scan(sp, 0, eps=0.0, delta=0.4)
    with pytest.raises(ValueError):
        epsilon_regular_scan(sp, 0, eps=0.1, delta=-1.0)


def test_scan_takes_at_most_max_r_samples_radii():
    sp = segment_space(0.1)
    rep = epsilon_regular_scan(sp, 3, eps=0.1, delta=0.5, k_set=(1,),
                               r_samples=MAX_R_SAMPLES, subsample=4)
    assert len(rep.r_values) == len(rep.rows) == MAX_R_SAMPLES
    for scan in (lambda r: epsilon_regular_scan(sp, 3, 0.1, 0.5, r_samples=r),
                 lambda r: regular_set_measure(sp, 0.1, 0.5, r_samples=r)):
        for r in (MAX_R_SAMPLES + 1, 10**6, math.inf):
            with pytest.raises(ValueError,
                               match=f"r_samples must be at most {MAX_R_SAMPLES}"):
                scan(r)


def test_scan_runs_higher_dimensions():
    sp = euclidean_ball_grid(2, 1.0, 1.0 / 16)
    center = int(np.argmin(np.einsum("ij,ij->i", sp.coords, sp.coords)))
    rep = epsilon_regular_scan(sp, center, eps=0.3, delta=0.5,
                               k_set=(1, 2), r_samples=6)
    assert set(rep.verdicts) == {1, 2}
    assert all(row.verdict in ("in", "out", "inconclusive")
               for row in rep.rows)
    assert sum(row.k == 2 for row in rep.rows) == 6


# === aggregated masses ===

def test_regular_mass_segment_concentrates_out_at_the_ends():
    sp = segment_space(HALF_PI / 1600)
    rep = regular_set_measure(sp, eps=0.1, delta=0.32, k_set=(1,),
                              budget=24, r_samples=8)
    assert len(rep.scanned) <= 24
    ms = rep.per_k[1]
    total = ms.in_mass + ms.out_mass + ms.inconclusive_mass
    assert total == pytest.approx(rep.scanned_mass, abs=1e-12)
    # every scanned cell farther than delta from both ends passes
    interior_mass = 0.0
    for c in rep.scanned:
        xc = float(sp.coords[c, 0])
        if min(xc, HALF_PI - xc) >= 0.32:
            interior_mass += float(sp.weight[c])
    assert ms.in_mass >= interior_mass - 1e-12
    # failures stay pinned to the two ends
    end_mass = 0.0
    for c in rep.scanned:
        xc = float(sp.coords[c, 0])
        if min(xc, HALF_PI - xc) < 0.85 * 0.32:
            end_mass += float(sp.weight[c])
    assert ms.out_mass <= end_mass + 1e-12
    assert rep.overall.in_mass == pytest.approx(ms.in_mass)


def test_regular_mass_empty_k_set_inconclusive():
    sp = circle_space(1.0, 12)
    rep = regular_set_measure(sp, eps=0.1, delta=1.0, k_set=(), budget=6)
    assert rep.per_k == {}
    assert rep.overall.in_mass == 0.0
    assert rep.overall.out_mass == 0.0
    assert rep.overall.inconclusive_mass == pytest.approx(rep.scanned_mass)


def test_regular_mass_scans_all_cells_when_budget_allows():
    sp = circle_space(1.0, 12)
    rep = regular_set_measure(sp, eps=0.1, delta=1.0, k_set=(1,), budget=50)
    assert rep.scanned == tuple(range(12))
    assert rep.scanned_mass == pytest.approx(sp.total_mass)


def test_regular_mass_builds_each_model_sample_once(monkeypatch):
    # the model balls depend on k, r and the pitch only, not on the center
    sp = circle_space(1.0, 12)
    kwargs = dict(eps=0.1, delta=1.0, k_set=(1, 2), r_samples=3, subsample=4)
    calls = []
    model_ball = regularity._model_ball
    monkeypatch.setattr(regularity, "_model_ball",
                        lambda *a: calls.append(a) or model_ball(*a))
    rep = regular_set_measure(sp, budget=6, **kwargs)
    assert len(calls) == 3 * 2
    assert rep.scanned == (0, 2, 4, 7, 9, 11)
    slot = {"in": 0, "out": 1, "inconclusive": 2}
    for k in (1, 2):
        acc = [0.0, 0.0, 0.0]
        for x in rep.scanned:
            verdict = epsilon_regular_scan(sp, x, **kwargs).verdicts[k]
            acc[slot[verdict]] += float(sp.weight[x])
        assert rep.per_k[k] == regularity.MassSplit(*acc)
