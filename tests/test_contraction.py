import math
import tracemalloc

import numpy as np
import pytest

from mmslab import (
    NecklaceParams,
    chebyshev_times,
    delta,
    lift_to_geodesic_plan,
    mcp_check,
    model_coefficient,
    necklace,
    necklace_schedule,
    plan_marginals,
    scalar_bound,
    schedule_density_check,
    segment_space,
    solve_w2,
    uniform_on,
)
from mmslab.contraction import MAX_SCALAR_SAMPLES, MAX_TIME_SAMPLES
from mmslab.generators import necklace_fibers

HALF_PI = math.pi / 2.0


def segment_plan(resolution):
    """Point mass at the fat end spread over the upper quarter segment."""
    sp = segment_space(resolution)
    targets = [i for i in range(sp.n) if sp.coords[i, 0] >= math.pi / 4]
    res = solve_w2(sp, delta(sp, 0), uniform_on(sp, targets))
    return sp, lift_to_geodesic_plan(sp, res.coupling)


def bead_pair(resolution):
    return necklace(NecklaceParams(beads=((0.4, 0.3), (1.1, 0.3)),
                                   resolution=resolution))


def fiber_near(space, x):
    _, fx, _, _, _, _ = necklace_fibers(space)
    return int(np.argmin(np.abs(fx - x)))


def cell_on_fiber(space, fiber, offset=0):
    """Cell ``offset`` steps above the fiber middle."""
    _, _, _, fcount, fstart, _ = necklace_fibers(space)
    return int(fstart[fiber] + fcount[fiber] // 2 + offset)


# === sampling and coefficients ===

def test_chebyshev_times_cover_the_unit_interval():
    t = chebyshev_times(33)
    assert len(t) == 33
    assert t[0] == 0.0
    assert t[-1] == pytest.approx(1.0, abs=1e-15)
    assert np.all(np.diff(t) > 0)
    # samples crowd toward the endpoints
    assert t[1] < 1.0 / 32


def test_chebyshev_times_need_two_samples():
    with pytest.raises(ValueError):
        chebyshev_times(1)


def test_chebyshev_times_stay_under_the_ceiling():
    with pytest.raises(ValueError, match=f"^count .* got {MAX_TIME_SAMPLES + 1}$"):
        chebyshev_times(MAX_TIME_SAMPLES + 1)
    assert len(chebyshev_times(MAX_TIME_SAMPLES)) == MAX_TIME_SAMPLES


@pytest.mark.parametrize("name, kwargs", [
    ("t_max", {"t_max": 0.0}), ("t_max", {"t_max": math.nan}),
    ("d_max", {"d_max": -1.0}), ("d_max", {"d_max": math.inf}),
    ("cushion", {"cushion": -1e-12}), ("cushion", {"cushion": math.nan}),
    ("samples", {"samples": 1}),
    ("samples", {"samples": MAX_SCALAR_SAMPLES + 1}),
    # past t d = pi the lemma's sin(t d) reaches 0: a NaN margin
    ("t_max", {"t_max": 2.0, "d_max": math.pi / 2}),
    # the grid starts at t = 1e-9 and d = 1e-6 and would run backwards
    ("t_max", {"t_max": 1e-9}), ("d_max", {"d_max": 1e-6}),
    ("d_max", {"d_max": 1e-300, "t_max": 1.0})])
def test_scalar_bound_rejects_inputs_outside_its_domain(name, kwargs):
    with pytest.raises(ValueError, match=f"^{name} must "):
        scalar_bound(**kwargs)


def test_model_coefficient_values():
    assert model_coefficient(1.0, 0.83) == pytest.approx(1.0, abs=1e-15)
    expect = 0.5 * math.sin(0.5) ** 2 / math.sin(1.0) ** 2
    assert model_coefficient(0.5, 1.0) == pytest.approx(expect, abs=1e-15)
    # degenerate travel distance falls back to the cubic limit
    assert model_coefficient(0.5, 0.0) == pytest.approx(0.125, abs=1e-15)


def test_scalar_bound_holds_with_visible_margin():
    rep = scalar_bound(samples=600)
    assert rep.ok
    assert 0.2 < rep.min_margin < 0.35
    # the margin shrinks toward the upper-right corner of the domain
    assert rep.argmin_t == pytest.approx(0.2, abs=1e-9)
    assert rep.argmin_d > 1.5


# === pointwise contraction on the quarter segment ===

def test_segment_plan_satisfies_the_contraction_bound():
    sp, plan = segment_plan(HALF_PI / 150)
    rep = mcp_check(sp, plan)
    assert rep.ok
    assert rep.marginal_defect <= 1e-12
    assert rep.worst_slack < 0              # discreteness bites a little
    assert rep.worst_slack > -sp.pitch()    # but far inside the allowance
    assert rep.mass_target == pytest.approx(
        float(sp.weight[sp.coords[:, 0] >= math.pi / 4].sum()), abs=1e-12)


def test_contraction_defect_shrinks_with_the_pitch():
    _, plan_a = segment_plan(HALF_PI / 100)
    sp_a, _ = segment_plan(HALF_PI / 100)
    sp_b, plan_b = segment_plan(HALF_PI / 200)
    worst_a = mcp_check(sp_a, plan_a).worst_slack
    worst_b = mcp_check(sp_b, plan_b).worst_slack
    assert worst_a < 0 and worst_b < 0
    assert abs(worst_a) / abs(worst_b) >= 1.4


def test_mcp_check_rejects_spread_sources():
    sp = segment_space(HALF_PI / 40)
    res = solve_w2(sp, uniform_on(sp, [0, 1]), uniform_on(sp, [20, 30]))
    plan = lift_to_geodesic_plan(sp, res.coupling)
    with pytest.raises(ValueError):
        mcp_check(sp, plan)


def test_mcp_allowance_gates_the_verdict():
    sp, plan = segment_plan(HALF_PI / 150)
    assert not mcp_check(sp, plan, allowance=1e-7).ok


@pytest.mark.parametrize("t_samples", [[], np.empty(0), [[0.0, 0.5, 1.0]],
                                       np.full((2, 2), 0.5), 0.5])
def test_mcp_check_rejects_samples_that_are_empty_or_not_1d(t_samples):
    """No times gave ``ok=True`` with no rows, a verdict with no
    evidence; a 2-D array raised ``TypeError``."""
    sp, plan = segment_plan(HALF_PI / 40)
    with pytest.raises(ValueError, match="^t_samples must be a nonempty 1-D"):
        mcp_check(sp, plan, t_samples=t_samples)


@pytest.mark.parametrize("t_samples", [[0.0], [0.0, 0.0], [1e-200, 0.0]])
def test_mcp_check_rejects_times_that_land_no_mass(t_samples):
    """At t = 0 alone a 400-cell segment plan gave ``ok=True`` with
    ``worst_slack`` inf, ``worst_cell`` -1 and no rows: a verdict with no
    evidence.  One time that lands mass is enough."""
    sp, plan = segment_plan(HALF_PI / 400)
    with pytest.raises(ValueError, match="^t_samples: no sampled time lands"):
        mcp_check(sp, plan, t_samples=t_samples)
    rep = mcp_check(sp, plan, t_samples=[*t_samples, 1.0])
    assert [row[0] for row in rep.rows] == [1.0] and rep.worst_t == 1.0


def test_mcp_check_memory_stays_bounded_at_the_most_times():
    """The times run in blocks of about ``TRIANGLE_BLOCK`` (time, cell)
    entries, so at ``MAX_TIME_SAMPLES`` times the peak stays far below
    the (times x cells) mass table that one pass over all times would
    fill (13 MB here, and a second one for the slack); what remains is
    mostly the report's rows and the plan's own arrays."""
    cells = 400
    sp = segment_space(HALF_PI / cells)
    res = solve_w2(sp, delta(sp, 0), uniform_on(sp, range(300, 400)))
    plan = lift_to_geodesic_plan(sp, res.coupling)
    times = chebyshev_times(MAX_TIME_SAMPLES)
    tracemalloc.start()
    try:
        rep = mcp_check(sp, plan, t_samples=times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rep.rows) == MAX_TIME_SAMPLES - 1     # nothing lands at t = 0
    assert peak < MAX_TIME_SAMPLES * cells * 8 / 4


# === the bead-chain schedule ===

def test_schedule_marginals_are_exact():
    sp = bead_pair(HALF_PI / 320)
    z = cell_on_fiber(sp, fiber_near(sp, 0.38))
    sched = necklace_schedule(sp, z, fiber_near(sp, 1.06), 2)
    e0, e1 = plan_marginals(sp, sched.plan)
    mu1 = uniform_on(sp, sched.target_cells)
    assert e0[z] == pytest.approx(1.0, abs=1e-15)
    assert np.max(np.abs(e1 - mu1)) <= 1e-12
    assert len(sched.plan.atoms) == sched.kappa_spread * sched.kappa_target


def test_schedule_atoms_share_length_and_run_at_constant_speed():
    sp = bead_pair(HALF_PI / 320)
    z = cell_on_fiber(sp, fiber_near(sp, 0.38))
    sched = necklace_schedule(sp, z, fiber_near(sp, 1.06), 2)
    assert sched.worst_speed_defect <= 2 * sp.pitch()
    assert sched.max_segment_slope <= 1.0 + 1e-12
    for g, _ in sched.plan.atoms:
        assert g.length == pytest.approx(sched.x_target - sched.x_source)
        assert g.times[0] == 0.0 and g.times[-1] == pytest.approx(1.0)


def test_schedule_landmark_times_are_ordered():
    sp = bead_pair(HALF_PI / 320)
    z = cell_on_fiber(sp, fiber_near(sp, 0.38))
    sched = necklace_schedule(sp, z, fiber_near(sp, 1.06), 2)
    assert 0 < sched.t_spread <= sched.t_flat_start <= sched.t_flat_end < 1
    assert sched.t_spread <= 0.3 / 5 + 1e-12   # at most r/5 into the trip
    times = sched.plan.atoms[0][0].times
    assert sched.t_spread in times


def test_schedule_density_profile_passes():
    sp = bead_pair(HALF_PI / 320)
    z = cell_on_fiber(sp, fiber_near(sp, 0.38))
    sched = necklace_schedule(sp, z, fiber_near(sp, 1.06), 2)
    rep = schedule_density_check(sp, sched)
    assert rep.ok and rep.heights_ok and rep.all_ok
    assert rep.marginal_defect <= 1e-12
    # at the final time both sides of the bound agree exactly
    last = rep.rows[-1]
    assert last[0] == pytest.approx(1.0)
    assert last[4] == pytest.approx(0.0, abs=1e-9)
    assert rep.ratio_defect <= 0.5


def test_schedule_height_law_is_tight_at_departure():
    sp = bead_pair(HALF_PI / 320)
    # source right of the bead center makes the t = 0 ratio exactly 5/4
    z = cell_on_fiber(sp, fiber_near(sp, 0.42))
    sched = necklace_schedule(sp, z, fiber_near(sp, 1.06), 2)
    rep = schedule_density_check(sp, sched)
    assert rep.heights_ok
    t0, ratio0, bound0, ok0 = rep.height_rows[0]
    assert t0 == 0.0 and ok0
    assert bound0 == pytest.approx(1.25)
    assert ratio0 == pytest.approx(1.25, abs=1e-9)


def test_schedule_handles_an_apex_crossing_source():
    sp = bead_pair(HALF_PI / 320)
    # far enough left that the spread fiber sits left of the bead center
    z = cell_on_fiber(sp, fiber_near(sp, 0.372))
    sched = necklace_schedule(sp, z, fiber_near(sp, 1.06), 2)
    assert sched.x_spread < 0.4
    assert sched.worst_speed_defect <= 2 * sp.pitch()
    rep = schedule_density_check(sp, sched)
    assert rep.ok and rep.heights_ok and rep.marginal_defect <= 1e-12


def test_schedule_enters_the_target_bead_through_its_apex():
    sp = bead_pair(HALF_PI / 320)
    z = cell_on_fiber(sp, fiber_near(sp, 0.38))
    sched = necklace_schedule(sp, z, fiber_near(sp, 1.14), 2)
    assert sched.x_target > 1.1
    assert sched.worst_speed_defect <= 2 * sp.pitch()
    rep = schedule_density_check(sp, sched)
    assert rep.marginal_defect <= 1e-12
    assert rep.heights_ok
    # on the descent the ray bundle skips cells, so the aggregated
    # certificate turns conservative; any violation it reports must sit
    # in that final stretch, and the pointwise check still clears
    if not rep.ok:
        assert rep.worst_t > sched.t_flat_end
    assert mcp_check(sp, sched.plan, t_samples=chebyshev_times()).ok


def test_schedule_rejects_bad_requests():
    sp = bead_pair(HALF_PI / 320)
    z = cell_on_fiber(sp, fiber_near(sp, 0.38))
    with pytest.raises(ValueError):
        necklace_schedule(sp, z, fiber_near(sp, 0.42), 2)   # same bead
    with pytest.raises(ValueError):
        necklace_schedule(sp, z, fiber_near(sp, 1.06), 3)   # odd block
    with pytest.raises(ValueError):
        necklace_schedule(sp, z, fiber_near(sp, 1.06), 64)  # block too tall
    gap_cell = cell_on_fiber(sp, fiber_near(sp, 0.75))
    with pytest.raises(ValueError):
        necklace_schedule(sp, gap_cell, fiber_near(sp, 1.06), 2)
    far = cell_on_fiber(sp, fiber_near(sp, 1.06))
    with pytest.raises(ValueError):
        necklace_schedule(sp, far, fiber_near(sp, 0.38), 2)  # leftward


def test_schedule_rejects_a_source_outside_the_cells():
    sp = bead_pair(HALF_PI / 320)
    for source in (-1, sp.n):
        with pytest.raises(ValueError, match=f"cell id {source} "):
            necklace_schedule(sp, source, fiber_near(sp, 1.06), 2)


def test_schedule_survives_the_pointwise_check():
    sp = bead_pair(HALF_PI / 320)
    z = cell_on_fiber(sp, fiber_near(sp, 0.38))
    sched = necklace_schedule(sp, z, fiber_near(sp, 1.06), 2)
    samples = sorted(set(chebyshev_times().tolist())
                     | {sched.t_spread, sched.t_flat_start, sched.t_flat_end})
    rep = mcp_check(sp, sched.plan, t_samples=samples)
    assert rep.ok
    assert rep.marginal_defect <= 1e-12
