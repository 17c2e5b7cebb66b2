"""Example-space constructors: masses, metrics, and fiber bookkeeping."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from mmslab import (
    FiniteMMS,
    NecklaceParams,
    ball,
    circle_space,
    euclidean_ball_grid,
    hawaiian_truncation,
    load_space,
    necklace,
    necklace_fibers,
    save_space,
    scale,
    segment_space,
    validate_space,
)
from mmslab.generators import DIAMOND_SLOPE

HALF_PI = math.pi / 2


# === segment ===

def test_segment_total_mass_is_quarter_pi():
    space = segment_space(HALF_PI / 200)
    # midpoint rule on cos^2 is O(h^2) accurate
    assert space.total_mass == pytest.approx(math.pi / 4, abs=1e-4)


def test_segment_first_cell_weight_is_about_pitch():
    h = HALF_PI / 100
    space = segment_space(h)
    assert space.weight[0] == pytest.approx(h, rel=1e-3)


def test_segment_distances_are_coordinate_gaps():
    space = segment_space(HALF_PI / 40)
    x = space.coords[:, 0]
    assert np.allclose(space.dist, np.abs(x[:, None] - x[None, :]))
    assert validate_space(space).ok


def test_segment_builds_its_matrix_without_a_second_copy():
    # 1,600 cells: the absolute value is taken in place, so the peak is
    # the matrix plus small vectors, not the difference and its abs
    tracemalloc.start()
    try:
        space = segment_space(HALF_PI / 1600)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert space.n == 1600
    assert peak < 1.2 * space.dist.nbytes, peak


def test_segment_rejects_bad_resolution():
    with pytest.raises(ValueError):
        segment_space(2.0)
    with pytest.raises(ValueError):
        segment_space(0.0)


# === circle ===

def test_circle_mass_is_circumference():
    space = circle_space(1.0, 1000)
    assert space.total_mass == pytest.approx(2 * math.pi, abs=1e-2)
    assert space.total_mass == pytest.approx(2 * math.pi, abs=1e-12)


def test_circle_antipodal_distance():
    space = circle_space(2.0, 64)
    assert space.dist[0, 32] == pytest.approx(2 * math.pi)
    assert validate_space(space).ok


def test_circle_distance_is_shorter_arc():
    space = circle_space(1.0, 12)
    assert space.dist[0, 1] == pytest.approx(2 * math.pi / 12)
    assert space.dist[0, 11] == pytest.approx(2 * math.pi / 12)


# === wedge of circles ===

def test_earring_total_mass_two_circles():
    space = hawaiian_truncation(2, 64)
    assert space.total_mass == pytest.approx(2 * math.pi * (1 + 0.25),
                                             abs=1e-12)


def test_earring_cell_count_and_base_weight():
    n, m = 4, 32
    space = hawaiian_truncation(n, m)
    assert space.n == n * (m - 1) + 1
    lengths = [2 * math.pi / k**2 for k in range(1, n + 1)]
    assert space.weight[0] == pytest.approx(sum(L / m for L in lengths))


def test_earring_cross_circle_distance_goes_through_base():
    space = hawaiian_truncation(3, 16)
    m = space.meta["cells_per_circle"]
    # circle k holds cells 1 + k(m - 1) .. (k + 1)(m - 1)
    i = 1 + 0 * (m - 1) + 3
    j = 1 + 2 * (m - 1) + 5
    assert space.dist[i, j] == pytest.approx(
        space.dist[i, 0] + space.dist[0, j])


def test_earring_validates():
    assert validate_space(hawaiian_truncation(3, 24)).ok


def earring_cells_oracle(n, m):
    """The per-cell loop that laid out the earring's cells before they
    were built as arrays: circle, arc position and weight of each cell,
    the base cell first."""
    lengths = [2 * math.pi / k**2 for k in range(1, n + 1)]
    circle_of_cell, arc_of_cell = [-1], [0.0]
    weights = [sum(L / m for L in lengths)]
    for k, L in enumerate(lengths):
        for j in range(1, m):
            circle_of_cell.append(k)
            arc_of_cell.append(L * j / m)
            weights.append(L / m)
    return circle_of_cell, arc_of_cell, weights


@pytest.mark.parametrize("n, m", [(1, 3), (2, 12), (4, 7), (10, 64)])
def test_earring_cells_match_the_loop_oracle(n, m):
    # the oracle's circle and arc lists imply every distance: along the
    # own circle, or through the base
    space = hawaiian_truncation(n, m)
    cnum, arc, weights = earring_cells_oracle(n, m)
    cnum, arc = np.asarray(cnum), np.asarray(arc)
    lengths = [2 * math.pi / k**2 for k in range(1, n + 1)]
    length = np.asarray([math.inf] + lengths)[cnum + 1]
    to_base = np.minimum(arc, length - arc)
    gap = np.abs(arc[:, None] - arc[None, :])
    own = np.minimum(gap, length[:, None] - gap)
    same = (cnum[:, None] == cnum[None, :]) & (cnum[:, None] >= 0)
    want = np.where(same, own, to_base[:, None] + to_base[None, :])
    assert np.max(np.abs(space.dist - want)) <= 1e-12
    assert space.weight.tolist() == weights
    assert set(space.meta) == {"generator", "params", "pitch", "circles",
                               "cells_per_circle"}


def test_earring_with_too_many_cells_fails_before_filling_memory():
    # the loop oracle would append 1e308 cells one at a time; numpy
    # refuses an array that size at once
    with pytest.raises((ValueError, OverflowError)):
        hawaiian_truncation(2, 1e308)


# === necklace ===

def test_zero_bead_necklace_is_the_segment():
    h = HALF_PI / 100
    beadless = necklace(NecklaceParams(beads=(), resolution=h))
    seg = segment_space(h)
    assert beadless.n == seg.n
    assert np.allclose(beadless.coords, seg.coords)
    assert np.allclose(beadless.weight, seg.weight)
    assert np.max(np.abs(beadless.dist - seg.dist)) <= 1e-12


def test_necklace_rejects_bad_layouts():
    with pytest.raises(ValueError):
        NecklaceParams(beads=((0.1, 1.0),), resolution=0.01)  # hangs left
    with pytest.raises(ValueError):
        NecklaceParams(beads=((0.5, 1.5),), resolution=0.01)  # too big
    with pytest.raises(ValueError):
        NecklaceParams(beads=((0.6, 0.4), (0.7, 0.4)), resolution=0.01)


def test_necklace_fiber_mass_is_independent_of_height():
    h = HALF_PI / 120
    space = necklace(NecklaceParams(beads=((0.8, 0.4),), resolution=h))
    fiber_of_cell, fx, fh, count, start, _ = necklace_fibers(space)
    for i in range(len(fx)):
        sl = slice(start[i], start[i] + count[i])
        assert space.weight[sl].sum() == pytest.approx(
            math.cos(fx[i]) ** 2 * space.pitch(), rel=1e-12)


def test_necklace_bead_fibers_have_even_cell_count_and_small_extent():
    h = HALF_PI / 120
    space = necklace(NecklaceParams(beads=((0.8, 0.4),), resolution=h))
    _, fx, fh, count, start, bead = necklace_fibers(space)
    inside = bead >= 0
    assert np.all(count[inside] % 2 == 0)
    assert np.all(count[~inside] == 1)
    for i in np.flatnonzero(inside):
        ext = 2 * fh[i] / count[i]
        assert ext <= space.pitch() + 1e-12
        ys = space.coords[start[i]:start[i] + count[i], 1]
        assert np.allclose(np.diff(ys), ext)
        assert abs(ys[0] + ys[-1]) < 1e-12  # symmetric around the axis


def test_necklace_same_fiber_distance_is_vertical_gap():
    h = HALF_PI / 120
    space = necklace(NecklaceParams(beads=((0.8, 0.4),), resolution=h))
    _, fx, fh, count, start, bead = necklace_fibers(space)
    i = int(np.argmax(count))
    a, b = start[i], start[i] + count[i] - 1
    gap = abs(space.coords[a, 1] - space.coords[b, 1])
    assert space.dist[a, b] == pytest.approx(gap, abs=1e-12)


def test_necklace_monotone_distance_is_horizontal_gap():
    h = HALF_PI / 120
    space = necklace(NecklaceParams(beads=((0.8, 0.4),), resolution=h))
    x = space.coords[:, 0]
    y = space.coords[:, 1]
    left = int(np.argmin(np.abs(x - 0.3)))
    right = int(np.argmin(np.abs(x - 1.3)))
    assert abs(y[left]) < 1e-12 and abs(y[right]) < 1e-12
    assert space.dist[left, right] == pytest.approx(x[right] - x[left],
                                                    abs=1e-10)


def test_necklace_vertex_to_vertex_crossing_costs_a_quarter_bead():
    h = HALF_PI / 160
    xk, rk = 0.8, 0.4
    space = necklace(NecklaceParams(beads=((xk, rk),), resolution=h))
    x = space.coords[:, 0]
    y = space.coords[:, 1]
    lv = int(np.argmin(np.abs(x - (xk - rk / 4)) + np.abs(y)))
    rv = int(np.argmin(np.abs(x - (xk + rk / 4)) + np.abs(y)))
    assert space.dist[lv, rv] == pytest.approx(x[rv] - x[lv], abs=1e-10)
    assert x[rv] - x[lv] == pytest.approx(rk / 2, abs=2 * h)


def test_necklace_validates():
    space = necklace(NecklaceParams(beads=((0.4, 0.3), (1.1, 0.3)),
                                    resolution=HALF_PI / 160))
    assert validate_space(space).ok


def test_necklace_bead_mass_matches_segment_quadrature():
    # the bead density is arranged so each fiber keeps the cos^2 line mass
    h = HALF_PI / 200
    xk, rk = 0.8, 0.4
    space = necklace(NecklaceParams(beads=((xk, rk),), resolution=h))
    _, fx, fh, count, start, bead = necklace_fibers(space)
    mass = 0.0
    for i in np.flatnonzero(bead == 0):
        mass += space.weight[start[i]:start[i] + count[i]].sum()
    lo, hi = xk - rk / 4, xk + rk / 4
    exact = (hi - lo) / 2 + (math.sin(2 * hi) - math.sin(2 * lo)) / 4
    assert mass == pytest.approx(exact, abs=2 * h)


def necklace_by_dijkstra(params):
    """The necklace as first built: the same cells, masses and fiber
    tables (as ``necklace_fibers`` returns them), with the metric from
    all-pairs Dijkstra on the cell-adjacency graph (consecutive cells of
    one fiber at cost |dy|, all cell pairs of adjacent fibers at cost
    max(pitch, |dy|)), symmetrized as (dist + dist.T) / 2.  Oracle for
    the fiber sweep of ``necklace``."""
    h = params.resolution
    n_fib = max(2, round(HALF_PI / h))
    w = HALF_PI / n_fib
    fx = (np.arange(n_fib) + 0.5) * w

    bead_of_fiber = np.full(n_fib, -1)
    fiber_h = np.zeros(n_fib)
    for k, (xk, rk) in enumerate(params.beads):
        inside = np.abs(fx - xk) < rk / 4
        bead_of_fiber[inside] = k
        fiber_h[inside] = DIAMOND_SLOPE * (rk / 4 - np.abs(fx[inside] - xk))

    fiber_count = np.where(fiber_h > 0,
                           2 * np.ceil(fiber_h / w - 1e-12).astype(int), 1)
    fiber_start = np.concatenate([[0], np.cumsum(fiber_count)])
    n_cells = int(fiber_start[-1])

    xs = np.empty(n_cells)
    ys = np.empty(n_cells)
    weight = np.empty(n_cells)
    for i in range(n_fib):
        k_i = fiber_count[i]
        sl = slice(fiber_start[i], fiber_start[i] + k_i)
        xs[sl] = fx[i]
        if k_i == 1:
            ys[sl] = 0.0
        else:
            ext = 2 * fiber_h[i] / k_i
            ys[sl] = -fiber_h[i] + (np.arange(k_i) + 0.5) * ext
        weight[sl] = np.cos(fx[i]) ** 2 * w / k_i

    rows, cols, vals = [], [], []
    for i in range(n_fib):
        a = slice(fiber_start[i], fiber_start[i + 1])
        k_i = fiber_count[i]
        if k_i > 1:
            idx = np.arange(fiber_start[i], fiber_start[i + 1])
            step = ys[idx[1]] - ys[idx[0]]
            rows.append(idx[:-1])
            cols.append(idx[1:])
            vals.append(np.full(k_i - 1, step))
        if i + 1 < n_fib:
            b = slice(fiber_start[i + 1], fiber_start[i + 2])
            ia = np.arange(a.start, a.stop)
            ib = np.arange(b.start, b.stop)
            pi, pj = np.meshgrid(ia, ib, indexing="ij")
            dy = np.abs(ys[pi] - ys[pj])
            rows.append(pi.ravel())
            cols.append(pj.ravel())
            vals.append(np.maximum(w, dy).ravel())
    graph = csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_cells, n_cells),
    )
    dist = dijkstra(graph, directed=False)
    dist = (dist + dist.T) / 2
    np.fill_diagonal(dist, 0.0)

    tables = (np.repeat(np.arange(n_fib), fiber_count), fx, fiber_h,
              fiber_count, fiber_start[:-1], bead_of_fiber)
    return dist, weight, np.column_stack([xs, ys]), tables


THREE_BEADS = ((0.3, 0.4), (0.8, 0.6), (1.3, 0.4))


@pytest.mark.parametrize("beads, fibers", [
    ((), 120),
    ((), 700),
    (((0.8, 0.4),), 160),
    (((0.7, 0.3),), 400),
    (((0.5, 1.0),), 300),
    (((0.4, 0.3), (1.1, 0.3)), 500),
    (THREE_BEADS, 240),
    (((0.3, 0.2), (0.8, 0.3), (1.3, 0.2)), 700),
])
def test_necklace_sweep_matches_the_dijkstra_oracle(beads, fibers):
    params = NecklaceParams(beads=beads, resolution=HALF_PI / fibers)
    space = necklace(params)
    dist, weight, coords, tables = necklace_by_dijkstra(params)
    # sums of the same edge costs in another order: 1e-15 is a few ulps
    # of the diameter; the largest difference seen here is 3.5e-17
    assert np.max(np.abs(space.dist - dist)) <= 1e-15
    assert np.array_equal(space.weight, weight)
    assert np.array_equal(space.coords, coords)
    for got, want in zip(necklace_fibers(space), tables, strict=True):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(space.dist, space.dist.T)
    assert not np.any(np.diag(space.dist))


def test_two_bead_necklace_is_bit_identical_to_the_oracle():
    params = NecklaceParams(beads=((0.4, 0.3), (1.1, 0.3)),
                            resolution=HALF_PI / 120)
    assert np.array_equal(necklace(params).dist,
                          necklace_by_dijkstra(params)[0])


def necklace_by_fiber_sweep(space):
    """The matrix of ``space``, a necklace, from the fiber sweep as it ran
    before it filled runs of spine fibers in one step: one min-plus step
    per fiber from the fiber before, on the space's own cells and pitch.
    Oracle for those runs, which must keep every sum bit for bit."""
    _, _, _, count, start, _ = necklace_fibers(space)
    start = np.append(start, space.n)
    w = space.meta["pitch"]
    ys = space.coords[:, 1]
    dist = np.empty((space.n, space.n))
    for i in range(count.size):
        a, b = start[i], start[i + 1]
        y = ys[a:b]
        dist[a:b, a:b] = np.abs(y[:, None] - y[None, :])
        if i == 0:
            continue
        p = start[i - 1]
        step = np.maximum(w, np.abs(ys[p:a, None] - y[None, :]))
        left = dist[a:b, :a]
        np.add(dist[p, :a], step[0][:, None], out=left)
        for r in range(1, a - p):
            np.minimum(left, dist[p + r, :a] + step[r][:, None], out=left)
        dist[:a, a:b] = left.T
    return dist


@pytest.mark.parametrize("beads, fibers", [
    ((), 2),
    ((), 120),
    ((), 700),
    (((0.8, 0.4),), 4),
    (((0.8, 0.4),), 160),
    (((0.1, 0.4),), 200),              # a bead at 0: fiber 0 is a bead fiber
    (((HALF_PI - 0.1, 0.4),), 200),    # a bead at pi/2: no spine run after it
    (((0.25, 1.0),), 31),
    (((HALF_PI - 0.25, 1.0),), 77),
    (((0.4, 0.3), (1.1, 0.3)), 500),
    (((0.075, 0.3), (HALF_PI - 0.075, 0.3)), 150),
    (THREE_BEADS, 240),
    (((0.3, 0.2), (0.8, 0.3), (1.3, 0.2)), 700),
])
def test_necklace_spine_runs_match_the_fiber_sweep_bit_for_bit(beads, fibers):
    space = necklace(NecklaceParams(beads=beads, resolution=HALF_PI / fibers))
    want = necklace_by_fiber_sweep(space)
    assert np.array_equal(space.dist.view(np.int64), want.view(np.int64))


def test_necklace_meta_is_its_recipe_and_pitch():
    params = NecklaceParams(beads=((0.8, 0.4),), resolution=HALF_PI / 160)
    assert necklace(params).meta == {
        "generator": "necklace", "pitch": HALF_PI / 160,
        "params": {"beads": [[0.8, 0.4]], "resolution": HALF_PI / 160}}


def test_necklace_fibers_are_the_same_after_every_reload(tmp_path):
    space = necklace(NecklaceParams(beads=((0.4, 0.3), (1.1, 0.3)),
                                    resolution=HALF_PI / 200))
    fibers = necklace_fibers(space)
    explicit, recipe, old = (str(tmp_path / f) for f in
                             ("explicit.json", "recipe.json", "old.json"))
    save_space(space, explicit)
    save_space(space, recipe, dist_mode="recipe")
    # a file written when the necklace still stored its fiber tables in
    # meta: the extra keys load and are ignored
    with open(explicit) as fh:
        doc = json.load(fh)
    _, fx, fh_, count, start, bead = fibers
    doc["meta"].update(
        beads=doc["meta"]["params"]["beads"], width_factor=DIAMOND_SLOPE,
        necklace={"fiber_x": fx.tolist(), "fiber_h": fh_.tolist(),
                  "fiber_count": count.tolist(),
                  "fiber_start": start.tolist(),
                  "bead_of_fiber": bead.tolist()})
    with open(old, "w") as fh:
        json.dump(doc, fh)
    for path in (explicit, recipe, old):
        for got, want in zip(necklace_fibers(load_space(path)), fibers,
                             strict=True):
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_necklace_fibers_need_a_necklace_recipe_of_the_space():
    space = necklace(NecklaceParams(beads=((0.8, 0.4),),
                                    resolution=HALF_PI / 120))
    prefix = FiniteMMS(dist=space.dist[:50, :50], weight=space.weight[:50],
                       meta=space.meta)
    for derived in (ball(space, 10, 0.2), scale(space, 2.0),
                    FiniteMMS(dist=space.dist, weight=space.weight),
                    segment_space(HALF_PI / 120), prefix):
        with pytest.raises(ValueError, match="no necklace recipe"):
            necklace_fibers(derived)


def test_necklace_builds_its_matrix_without_a_second_copy():
    # 933 cells: the sweep fills one matrix in place, fiber by fiber; the
    # Dijkstra graph and (dist + dist.T) / 2 peaked at 2.1x
    params = NecklaceParams(beads=((0.8, 0.4),), resolution=HALF_PI / 600)
    tracemalloc.start()
    try:
        space = necklace(params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert space.n == 933
    assert peak < 1.5 * space.dist.nbytes, peak


# === Euclidean ball grids ===

def test_ball_grid_1d_is_an_interval():
    space = euclidean_ball_grid(1, 1.0, 0.25)
    xs = np.sort(space.coords[:, 0])
    assert xs[0] == pytest.approx(-1.0)
    assert xs[-1] == pytest.approx(1.0)
    assert space.total_mass == pytest.approx(2.0, abs=0.25)


def test_ball_grid_2d_mass_approximates_area():
    r, p = 1.0, 0.05
    space = euclidean_ball_grid(2, r, p)
    assert space.total_mass == pytest.approx(math.pi * r**2, abs=4 * p)
    assert validate_space(space).ok


def test_ball_grid_contains_center_and_is_symmetric():
    space = euclidean_ball_grid(3, 0.5, 0.25)
    norms = np.linalg.norm(space.coords, axis=1)
    assert np.min(norms) == pytest.approx(0.0)
    assert np.max(norms) <= 0.5 + 1e-9
    # grid symmetric under negation
    key = {tuple(np.round(c, 9)) for c in space.coords}
    assert {tuple(np.round(-c, 9)) for c in space.coords} == key


def ball_by_einsum(space):
    """The matrix ``euclidean_ball_grid`` built before it summed one axis
    at a time, kept as an oracle: all n^2 * k coordinate differences,
    reduced by ``einsum``."""
    diff = space.coords[:, None, :] - space.coords[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


@pytest.mark.parametrize("k, r, resolution", [
    (1, 1.0, 0.25), (2, 0.5, 0.1), (2, 1.0, 0.125), (2, 1.0, 1 / 3),
    (2, 1.0, 0.2), (3, 0.5, 0.25), (3, 1.0, 1 / 3), (3, 1.0, 0.5),
    (3, 1.0, 0.2), (3, 1.3, 1 / 7), (3, 2 / 3, 1 / 6)])
def test_ball_grid_matches_the_einsum_oracle_bit_for_bit(k, r, resolution):
    # einsum sums three squares as (x^2 + z^2) + y^2; the other orders
    # differ on 1,392 of the 15,129 entries of ball(3, 1, 1/3)
    space = euclidean_ball_grid(k, r, resolution)
    want = ball_by_einsum(space)
    assert np.array_equal(space.dist.view(np.int64), want.view(np.int64))


def test_ball_grid_peak_memory_stays_near_two_matrices():
    # the n^2 * k differences made the peak 5.0x the matrix at 4,169 cells
    tracemalloc.start()
    try:
        space = euclidean_ball_grid(3, 1.0, 0.125)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.n > 2000
    assert peak < 2.2 * space.dist.nbytes


def test_ball_grid_rejects_bad_dimension():
    with pytest.raises(ValueError):
        euclidean_ball_grid(4, 1.0, 0.1)


def test_whole_number_float_counts_build_the_integer_space():
    for built, ref in [(circle_space(1.0, 12.0), circle_space(1.0, 12)),
                       (hawaiian_truncation(4.0, 24.0),
                        hawaiian_truncation(4, 24)),
                       (euclidean_ball_grid(2.0, 1.0, 0.25),
                        euclidean_ball_grid(2, 1.0, 0.25))]:
        assert np.array_equal(built.dist, ref.dist)
        assert np.array_equal(built.weight, ref.weight)
