"""Core data structures: spaces, validation, balls, geodesics, round trips."""

import functools
import itertools
import json
import math
import os
import tempfile
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmslab import (
    DiscreteGeodesic,
    FiniteMMS,
    ball,
    ball_indices,
    constant_speed_defect,
    evaluate,
    geodesics_between,
    load_space,
    save_space,
    scale,
    segment_space,
    validate_space,
)
from mmslab import core
from mmslab.core import (SAVE_BLOCK, TRIANGLE_BLOCK, TRIANGLE_TOL,
                         ValidationReport, _jsonable)
from mmslab.generators import (NecklaceParams, circle_space,
                               euclidean_ball_grid, hawaiian_truncation,
                               necklace)


def two_point(d=1.0):
    return FiniteMMS(dist=np.array([[0.0, d], [d, 0.0]]),
                     weight=np.array([1.0, 1.0]))


def chain_space(n, step=0.2):
    idx = np.arange(n)
    dist = np.abs(idx[:, None] - idx[None, :]) * step
    return FiniteMMS(dist=dist, weight=np.ones(n),
                     meta={"pitch": step})


def uniform_chain_geodesic(n, length):
    times = np.linspace(0.0, 1.0, n)
    return DiscreteGeodesic(nodes=tuple(range(n)), times=tuple(times),
                            length=length)


# === construction and validation ===

def test_two_point_space_is_valid():
    rep = validate_space(two_point())
    assert rep.ok
    assert rep.certificate == "exhaustive"


def test_a_space_without_cells_is_rejected():
    # enumerate_isometries indexed past the end of an empty space, and
    # save_space wrote it to a file that load_space refused
    with pytest.raises(ValueError, match="at least one cell"):
        FiniteMMS(dist=np.zeros((0, 0)), weight=np.zeros(0))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["dist", "weight", "coords"])
def test_a_nonfinite_entry_is_rejected(name, value):
    # a NaN distance once certified an empty isometry group, and a NaN
    # triangle defect hid the violations next to it
    arrays = {"dist": np.array([[0.0, 1.0], [1.0, 0.0]]),
              "weight": np.ones(2), "coords": np.zeros((2, 2))}
    arrays[name].flat[-1] = value
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        FiniteMMS(**arrays)


def test_scaling_past_the_float_range_is_rejected():
    with pytest.raises(ValueError, match="dist must be finite"):
        scale(two_point(), 1e-320)


def test_triangle_violation_is_reported_with_defect():
    dist = np.array([
        [0.0, 1.0, 5.0],
        [1.0, 0.0, 1.0],
        [5.0, 1.0, 0.0],
    ])
    rep = validate_space(FiniteMMS(dist=dist, weight=np.ones(3)))
    assert not rep.ok
    assert rep.worst_triangle_defect == pytest.approx(3.0, abs=1e-12)


def test_a_defect_that_fails_ok_is_listed():
    # a 1e-7 defect failed ok while the violation list, filtered by a
    # separate tol, could come back empty
    circle = circle_space(1.0, 12)
    dist = circle.dist.copy()
    dist[0, 6] = dist[6, 0] = dist[0, 6] + 1e-7
    rep = validate_space(FiniteMMS(dist=dist, weight=circle.weight))
    assert not rep.ok
    assert rep.triangle_violations
    assert {(i, j) for i, j, _, _ in rep.triangle_violations} == {(0, 6),
                                                                  (6, 0)}
    assert all(v[3] > TRIANGLE_TOL for v in rep.triangle_violations)


def test_validator_flags_asymmetry_and_diagonal():
    # construction checks what validate_space once reported: an asymmetric
    # matrix got through to a complete isometry group holding the swap
    # [1, 0, 2], which is no isometry of dist[2, 1] != dist[1, 2]
    with pytest.raises(ValueError, match=r"dist must be symmetric: "
                       r"dist\[1, 2\] = 2\.0, dist\[2, 1\] = 1\.0"):
        FiniteMMS(dist=np.array([[0.0, 2.0, 2.0], [2.0, 0.0, 2.0],
                                 [2.0, 1.0, 0.0]]), weight=np.ones(3))
    with pytest.raises(ValueError, match=r"dist must have a zero diagonal: "
                       r"dist\[1, 1\] = 1e-12"):
        FiniteMMS(dist=np.array([[0.0, 1.0], [1.0, 1e-12]]), weight=np.ones(2))
    with pytest.raises(ValueError, match="weights must be strictly positive"):
        FiniteMMS(dist=np.array([[0.0, 1.0], [1.0, 0.0]]),
                  weight=np.array([1.0, -2.0]))
    # signed zeros compare equal, on the diagonal and off it
    space = FiniteMMS(dist=np.array([[-0.0, 1.0, 0.0], [1.0, 0.0, -0.0],
                                     [-0.0, 0.0, -0.0]]), weight=np.ones(3))
    assert validate_space(space).certificate == "exhaustive"


def test_one_bead_necklace_validates_clean():
    space = necklace(NecklaceParams(beads=((0.8, 0.4),),
                                    resolution=math.pi / 2 / 120))
    rep = validate_space(space)
    assert rep.ok, rep
    # 136 cells: every triple checked, and the bound is the worst defect
    assert rep.certificate == "exhaustive"
    assert rep.triangle_defect_bound == rep.worst_triangle_defect


def test_large_space_uses_sampled_triples():
    rng = np.random.default_rng(7)
    pts = rng.random((320, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff**2).sum(-1))
    rep = validate_space(FiniteMMS(dist=dist, weight=np.ones(320)))
    assert rep.ok
    assert rep.certificate == "sample"
    assert rep.triples_checked > 0


def cloud_space(n, seed):
    pts = np.random.default_rng(seed).random((n, 2))
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    return FiniteMMS(dist=dist, weight=np.ones(n))


def random_symmetric_space(n, seed):
    dist = np.random.default_rng(seed).random((n, n))
    dist = np.triu(dist, 1)
    return FiniteMMS(dist=dist + dist.T, weight=np.ones(n))


def random_integer_space(n, seed):
    """Symmetric with entries in {1, 2, 3} off its zero diagonal: many
    ties, and a violation wherever a 3 spans two 1s."""
    dist = np.triu(np.random.default_rng(seed).integers(1, 4, (n, n)), 1)
    return FiniteMMS(dist=dist + dist.T, weight=np.ones(n))


def stretched_space(n, seed, pairs):
    """A valid cloud with ``pairs`` distances tripled: a few violations
    scattered over many blocks of the sample."""
    dist = cloud_space(n, seed).dist.copy()
    rng = np.random.default_rng(seed + 100)
    for a, b in rng.integers(0, n, size=(pairs, 2)):
        if a != b:
            dist[a, b] = dist[b, a] = 3.0 * dist[a, b]
    return FiniteMMS(dist=dist, weight=np.ones(n))


def sampled_validation_oracle(space, seed=0, max_triples=20_000_000):
    """The sampled triangle check drawing and gathering every triple at
    once, as validate_space did before it streamed blocks."""
    d = space.dist
    n = space.n
    rng = np.random.default_rng(seed)
    m = min(max_triples, 4 * n * n)
    idx = rng.integers(0, n, size=(m, 3))
    defect = d[idx[:, 0], idx[:, 1]] - d[idx[:, 0], idx[:, 2]] - d[idx[:, 2], idx[:, 1]]
    worst = float(defect.max())
    violations = []
    if worst > TRIANGLE_TOL:
        bad = np.argwhere(defect > TRIANGLE_TOL).ravel()
        for b in bad[:32]:
            i, j, k = (int(v) for v in idx[b])
            violations.append((i, j, k, float(defect[b])))
    return ValidationReport(
        n=n,
        triangle_violations=tuple(violations),
        worst_triangle_defect=max(worst, 0.0),
        triples_checked=m,
    )


@pytest.mark.parametrize("n", [301, 450])
@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("make", [cloud_space, random_symmetric_space,
                                  random_integer_space])
def test_streamed_sample_matches_all_at_once_oracle(make, seed, n):
    space = make(n, seed)
    rep = validate_space(space, seed=seed)
    assert rep == sampled_validation_oracle(space, seed=seed)
    assert rep.ok == (make is cloud_space)


@pytest.mark.parametrize("max_triples", [1, TRIANGLE_BLOCK, 3 * TRIANGLE_BLOCK + 5,
                                         20_000_000])
def test_streamed_sample_matches_oracle_across_block_boundaries(monkeypatch,
                                                                 max_triples):
    monkeypatch.setattr(core, "MAX_SAMPLED_TRIPLES", max_triples)
    space = stretched_space(301, 0, pairs=20)
    rep = validate_space(space)
    assert rep == sampled_validation_oracle(space, max_triples=max_triples)
    assert rep.triples_checked == min(max_triples, 4 * 301 * 301)


def test_violation_cap_is_reached_after_the_first_block(monkeypatch):
    # A few stretched pairs: the first block holds fewer than 32 violating
    # triples and the whole sample more, so the list spans several blocks.
    space = stretched_space(301, 0, pairs=20)
    full = validate_space(space)
    monkeypatch.setattr(core, "MAX_SAMPLED_TRIPLES", TRIANGLE_BLOCK)
    first = validate_space(space)
    assert 0 < len(first.triangle_violations) < 32
    assert len(full.triangle_violations) == 32
    assert full.triangle_violations[:len(first.triangle_violations)] == first.triangle_violations


def test_streamed_sample_lists_the_first_32_violations_in_draw_order():
    space = random_symmetric_space(301, 0)
    rep = validate_space(space)
    assert len(rep.triangle_violations) == 32
    assert rep.triangle_violations == sampled_validation_oracle(space).triangle_violations
    d = space.dist
    for i, j, k, defect in rep.triangle_violations:
        assert defect == d[i, j] - d[i, k] - d[k, j]


@pytest.mark.parametrize("n", [1, 2, 16, 17, 33, 1100])
def test_symmetry_defect_matches_the_full_difference(n):
    """Construction rejects a matrix exactly where |d - d^T| on the whole
    matrix, or its diagonal, is nonzero, and names the first offending
    entry of the upper triangle, across the edges of its row blocks."""
    d = random_symmetric_space(n, n).dist.copy()
    step = max(1, TRIANGLE_BLOCK // n)
    edges = sorted({0, step - 1, step, n - 1} & set(range(n)))
    for i, j in itertools.product(edges, repeat=2):
        bent = d.copy()
        bent[i, j] = np.nextafter(bent[i, j], np.inf)
        assert (float(np.abs(bent - bent.T).max()) > 0) == (i != j)
        name = (f"symmetric: dist\\[{min(i, j)}, {max(i, j)}\\]" if i != j
                else f"zero diagonal: dist\\[{i}, {i}\\]")
        with pytest.raises(ValueError, match=name):
            FiniteMMS(dist=bent, weight=np.ones(n))
        if i != j:
            assert np.array_equal(
                FiniteMMS(dist=np.maximum(bent, bent.T), weight=np.ones(n)).dist,
                np.maximum(bent, bent.T))


def test_construction_makes_no_n2_temporary():
    dist = cloud_space(1000, 0).dist.copy()
    tracemalloc.start()
    try:
        FiniteMMS(dist=dist, weight=np.ones(1000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * dist.nbytes, peak


def test_sampled_validation_memory_stays_near_the_matrix():
    """The streamed sample allocates no n^2 temporary."""
    space = cloud_space(1000, 0)
    tracemalloc.start()
    try:
        rep = validate_space(space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.ok and rep.triples_checked == 4_000_000
    assert peak < 0.5 * space.dist.nbytes, peak


def exhaustive_validation_oracle(space):
    """The report of the min-plus check ``validate_space`` runs up to 300
    cells, as it ran it: one full n x n update per k, with the same sums
    d(i,k) + d(k,j)."""
    d = space.dist
    n = space.n
    worst, violations, checked = 0.0, [], 0
    if n >= 3:
        best = np.full((n, n), np.inf)
        for k in range(n):
            np.minimum(best, d[:, k][:, None] + d[k, :][None, :], out=best)
            checked += n * n
        defect = d - best
        worst = float(defect.max())
        if worst > TRIANGLE_TOL:
            for i, j in np.argwhere(defect > TRIANGLE_TOL)[:32]:
                k = int(np.argmin(d[i, :] + d[:, j]))
                violations.append((int(i), int(j), k, float(defect[i, j])))
    return ValidationReport(
        n=n, triangle_violations=tuple(violations),
        worst_triangle_defect=max(worst, 0.0), triples_checked=checked,
        certificate="exhaustive", triangle_defect_bound=max(worst, 0.0))


def graph_witness_oracle(space):
    """``_graph_witness`` as it ran in row blocks of i: every path
    D(i,k) + D(j,k) of the block gathered along the edge list, and m_ij
    one ``np.minimum.reduceat`` over the edges into j."""
    d = space.dist
    n = space.n
    radius = core.WITNESS_PITCHES * space.pitch()
    if not radius > 0:
        return None
    indptr, tails, weights = core._near_graph(space, radius)
    if not np.diff(indptr).all():
        return None
    eps = np.finfo(float).eps
    rho = 3 * eps * max(float(d.max()), -float(d.min()))
    w_min = float(weights.min())
    plus = minus = bound = 0.0
    rows = max(1, TRIANGLE_BLOCK // len(tails))
    for s in range(0, n, rows):
        block = d[s:s + rows]
        paths = block.take(tails, axis=1)
        paths += weights
        defect = block - np.minimum.reduceat(paths, indptr[:-1], axis=1)
        plus = max(plus, float(defect.max()))
        defect[np.arange(len(block)), np.arange(s, s + len(block))] = np.inf
        minus = max(minus, -float(defect.min()))
        bound = (n - 1) * (plus + 2 * minus + 3 * rho) * (1 + 4 * eps)
        if bound > TRIANGLE_TOL or not w_min > minus + rho:
            return None
    return plus, n * len(tails), bound


def validation_oracle(space, seed=0):
    """The whole ``validate_space`` report from the three oracles."""
    if space.n <= core.FULL_TRIANGLE_LIMIT:
        return exhaustive_validation_oracle(space)
    witness = graph_witness_oracle(space)
    if witness is None:
        return sampled_validation_oracle(space, seed=seed)
    worst, checked, bound = witness
    return ValidationReport(
        n=space.n, triangle_violations=(), worst_triangle_defect=max(worst, 0.0),
        triples_checked=checked, certificate="graph",
        triangle_defect_bound=bound)


GRAPH_SPACES = {
    "segment": lambda: segment_space(math.pi / 2 / 393),
    "circle": lambda: circle_space(1.0, 400),
    "earring": lambda: hawaiian_truncation(6, 64),
    "necklace": lambda: necklace(NecklaceParams(
        beads=((0.4, 0.3), (1.1, 0.3)), resolution=math.pi / 2 / 315)),
    "necklace-3": lambda: necklace(NecklaceParams(
        beads=((0.3, 0.4), (0.8, 0.3), (1.3, 0.4)), resolution=math.pi / 2 / 200)),
}


@pytest.mark.parametrize("kind", sorted(GRAPH_SPACES))
def test_graph_bound_covers_the_exhaustive_worst_defect(kind):
    space = GRAPH_SPACES[kind]()
    assert 300 < space.n <= 450
    rep = validate_space(space)
    assert rep.certificate == "graph" and rep.ok
    assert rep.triangle_violations == ()
    worst = exhaustive_validation_oracle(space).worst_triangle_defect
    # the witness sees some triples, and its bound covers them all
    assert rep.worst_triangle_defect <= worst
    assert worst <= rep.triangle_defect_bound <= TRIANGLE_TOL
    assert rep.triples_checked % space.n == 0


PLANTED_PAIRS = [(3, 5), (3, 40), (10, 300), (200, 420)]


def planted_necklace(pair, change):
    """The 423-cell graph necklace with ``change`` added to one distance;
    raising the distance of two neighbouring cells would leave a metric,
    so every pair in ``PLANTED_PAIRS`` has a cell between its ends."""
    space = GRAPH_SPACES["necklace"]()
    dist = space.dist.copy()
    a, b = pair
    dist[a, b] = dist[b, a] = dist[a, b] + change
    return replace(space, dist=dist)


@pytest.mark.parametrize("change", [1e-8, -1e-8])
@pytest.mark.parametrize("pair", PLANTED_PAIRS)
def test_a_planted_defect_fails_the_witness(pair, change):
    assert validate_space(GRAPH_SPACES["necklace"]()).certificate == "graph"
    planted = planted_necklace(pair, change)
    assert exhaustive_validation_oracle(planted).worst_triangle_defect > TRIANGLE_TOL
    rep = validate_space(planted)
    assert rep.certificate == "sample" and rep.triangle_defect_bound == math.inf
    assert rep == sampled_validation_oracle(planted)


def tied_space(n, seed):
    """Symmetric with entries in {1, 2} off its zero diagonal: a metric
    in which almost every min-plus minimum is tied."""
    dist = np.triu(np.random.default_rng(seed).integers(1, 3, (n, n)), 1)
    return FiniteMMS(dist=(dist + dist.T).astype(float), weight=np.ones(n))


def signed_zero_space():
    """Zeros of both signs, on the diagonal and off it, that compare
    equal across it."""
    return FiniteMMS(
        dist=np.array([[-0.0, 1.0, 0.0], [1.0, 0.0, -0.0], [-0.0, 0.0, -0.0]]),
        weight=np.ones(3))


ORACLE_SPACES = {
    **GRAPH_SPACES,
    **{f"planted-{a}-{b}-{change:+.0e}": functools.partial(
        planted_necklace, (a, b), change)
       for a, b in PLANTED_PAIRS for change in (1e-8, -1e-8)},
    "ball-grid": lambda: euclidean_ball_grid(2, 1.0, 0.1),
    **{f"random-{n}": functools.partial(random_symmetric_space, n, n)
       for n in (3, 4, 7, 31, 150, 299, 300)},
    **{f"tied-{n}": functools.partial(tied_space, n, n)
       for n in (3, 4, 7, 31, 150, 299, 300)},
    "signed-zeros": signed_zero_space,
    "one-cell": lambda: FiniteMMS(dist=np.zeros((1, 1)), weight=np.ones(1)),
    "two-cell": two_point,
}


@pytest.mark.parametrize("kind", sorted(ORACLE_SPACES))
def test_validation_matches_the_old_loops_to_the_bit(kind):
    """The upper-triangle min-plus pass and the degree-bucketed witness do
    the same sums as the loops they replaced: the reports, and the
    witness's own result, are equal, down to the sign of a zero."""
    space = ORACLE_SPACES[kind]()
    rep, old = validate_space(space), validation_oracle(space)
    assert rep == old and repr(rep) == repr(old)
    witness, old_witness = core._graph_witness(space), graph_witness_oracle(space)
    assert witness == old_witness and repr(witness) == repr(old_witness)


def test_the_oracle_spaces_reach_every_path():
    reports = {kind: validation_oracle(make())
               for kind, make in ORACLE_SPACES.items()}
    assert {rep.certificate for rep in reports.values()} == {
        "exhaustive", "graph", "sample"}
    assert reports["ball-grid"].n == 317
    assert reports["ball-grid"].certificate == "sample"
    assert not reports["random-300"].ok and reports["tied-300"].ok
    # the earring's witness graph spans the widest range of in-degrees
    earring = GRAPH_SPACES["earring"]()
    indptr, _, _ = core._near_graph(
        earring, core.WITNESS_PITCHES * earring.pitch())
    degree = np.diff(indptr)
    assert (degree.min(), degree.max()) == (2, 244)


def test_witness_memory_stays_a_fraction_of_the_matrix():
    """A block gathers about TRIANGLE_BLOCK paths, not one n-long row per
    edge of every cell in it."""
    space = necklace(NecklaceParams(beads=((0.5, 0.3),),
                                    resolution=math.pi / 2 / 675))
    assert space.n >= 900
    tracemalloc.start()
    try:
        rep = validate_space(space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.certificate == "graph"
    assert peak < 0.15 * space.dist.nbytes, peak


def test_exhaustive_memory_stays_near_twice_the_matrix():
    space = necklace(NecklaceParams(beads=((0.5, 0.3), (0.9, 0.3)),
                                    resolution=math.pi / 2 / 225))
    assert space.n == 282
    tracemalloc.start()
    try:
        rep = validate_space(space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.certificate == "exhaustive"
    assert peak < 2.21 * space.dist.nbytes, peak


@pytest.mark.parametrize("seed", [-1, np.int64(-2), True, np.bool_(False)])
def test_a_bool_or_negative_seed_is_rejected(seed):
    # validate_space once took -1 on any space it checked exhaustively or
    # by the witness, where the seed goes unused
    for space in (circle_space(1.0, 12), GRAPH_SPACES["circle"]()):
        with pytest.raises(ValueError, match="^seed must be a nonnegative"):
            validate_space(space, seed=seed)


def test_numpy_seeds_are_accepted():
    space = euclidean_ball_grid(2, 1.0, 0.1)
    assert validate_space(space, seed=np.int64(3)) == validate_space(space, seed=3)
    sequence = np.random.SeedSequence(3)
    assert validate_space(space, seed=sequence) == validate_space(space, seed=3)


def pitch_oracle(space):
    """The nearest-neighbour fallback of ``pitch`` on one masked n^2 copy,
    as it ran before it went in row blocks."""
    d = np.where(np.eye(space.n, dtype=bool), np.inf, space.dist)
    return float(d.min(axis=1).max())


@pytest.mark.parametrize("n", [2, 17, 1100])
def test_blocked_pitch_fallback_matches_the_masked_copy(n):
    for space in (cloud_space(n, n), random_symmetric_space(n, n)):
        assert "pitch" not in space.meta
        assert space.pitch() == pitch_oracle(space)


def near_graph_oracle(space, radius):
    """The CSR arrays of the graph of the cells within ``radius``, built
    from one dense n^2 mask as the lift's graph was."""
    from scipy.sparse import csr_matrix
    d = space.dist
    rows, cols = np.nonzero((d > 0) & (d <= radius))
    graph = csr_matrix((d[rows, cols], (rows, cols)), shape=d.shape)
    return graph.indptr, graph.indices, graph.data


def relabelled_earring():
    space = hawaiian_truncation(3, 24)
    labels = np.random.default_rng(5).permutation(space.n)
    return FiniteMMS(dist=space.dist[np.ix_(labels, labels)],
                     weight=space.weight[labels],
                     meta={"pitch": space.pitch()})


NEAR_GRAPH_SPACES = {
    "segment": lambda: segment_space(0.03),
    "circle": lambda: circle_space(1.0, 40),
    "earring": lambda: hawaiian_truncation(6, 64),
    "earring-small": lambda: hawaiian_truncation(2, 9),
    "relabelled-earring": relabelled_earring,
    "necklace-1": lambda: necklace(NecklaceParams(
        beads=((0.8, 0.4),), resolution=math.pi / 2 / 60)),
    "necklace-2": lambda: necklace(NecklaceParams(
        beads=((0.4, 0.3), (1.1, 0.3)), resolution=math.pi / 2 / 80)),
    "necklace-3": lambda: necklace(NecklaceParams(
        beads=((0.3, 0.4), (0.8, 0.3), (1.3, 0.4)), resolution=math.pi / 2 / 60)),
    "ball-grid": lambda: euclidean_ball_grid(2, 1.0, 0.125),
}


@pytest.mark.parametrize("rows", ["1", "7", "n+1"])
@pytest.mark.parametrize("pitches", [core.EDGE_FACTOR, core.WITNESS_PITCHES])
@pytest.mark.parametrize("kind", sorted(NEAR_GRAPH_SPACES))
def test_near_graph_matches_the_dense_mask(monkeypatch, kind, pitches, rows):
    """One row per block, seven, and the whole matrix in one block."""
    space = NEAR_GRAPH_SPACES[kind]()
    per_block = {"1": 1, "7": 7, "n+1": space.n + 1}[rows]
    monkeypatch.setattr(core, "TRIANGLE_BLOCK", per_block * space.n)
    radius = pitches * space.pitch()
    got = core._near_graph(space, radius)
    want = near_graph_oracle(space, radius)
    assert len(got[1]) > 0
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_near_graph_makes_no_n2_temporary():
    space = segment_space(math.pi / 2 / 1600)
    assert space.n == 1600
    tracemalloc.start()
    try:
        core._near_graph(space, core.WITNESS_PITCHES * space.pitch())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one boolean n^2 mask alone is 12.5% of the matrix
    assert peak < 0.05 * space.dist.nbytes, peak


# === cell ids ===

@pytest.mark.parametrize("bad", [1.9, -0.5, math.nan, math.inf, True, False,
                                 np.True_, "3", None, [2]])
def test_cell_ids_that_are_no_whole_numbers_are_rejected(bad):
    # 1.9 was truncated to cell 1, True to cell 1 and "3" to cell 3
    with pytest.raises(ValueError, match="is not a whole number"):
        core.cell_id(chain_space(8), bad)


@pytest.mark.parametrize("good", [2, 2.0, np.int32(2), np.int64(2),
                                  np.float64(2.0)])
def test_whole_cell_ids_are_accepted(good):
    i = core.cell_id(chain_space(8), good)
    assert i == 2 and type(i) is int


# === scaling ===

def test_scale_divides_distances():
    space = scale(two_point(1.0), 0.5)
    assert space.dist[0, 1] == pytest.approx(2.0)
    assert scale(two_point(1.0), 1.0).dist[0, 1] == pytest.approx(1.0)


def test_scale_rejects_nonpositive_factor():
    # an infinite factor gave every distance 0, with pitch 0
    for factor in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="factor"):
            scale(two_point(), factor)


def test_triangle_violations_survive_scaling():
    rng = np.random.default_rng(3)
    dist = rng.random((6, 6))
    dist = (dist + dist.T) / 2
    np.fill_diagonal(dist, 0.0)
    space = FiniteMMS(dist=dist, weight=np.ones(6))
    before = validate_space(space)
    after = validate_space(scale(space, 3.0))
    assert (len(before.triangle_violations) > 0) == \
        (len(after.triangle_violations) > 0)
    if before.worst_triangle_defect > 0:
        assert after.worst_triangle_defect == \
            pytest.approx(before.worst_triangle_defect / 3.0, rel=1e-9)


def test_scale_updates_pitch():
    space = scale(chain_space(5), 2.0)
    assert space.pitch() == pytest.approx(0.1)


# === balls ===

def test_ball_with_huge_radius_is_whole_space():
    space = chain_space(5)
    sub = ball(space, 2, 100.0)
    assert sub.n == 5
    assert sub.meta["subset"] == list(range(5))


def test_ball_with_tiny_radius_is_singleton():
    sub = ball(chain_space(5), 2, 0.05)
    assert sub.n == 1
    assert sub.meta["subset"] == [2]


def test_open_ball_excludes_boundary():
    # balls are closed: cell 2, at exactly the radius, is in
    space = chain_space(5)
    assert list(ball_indices(space, 0, 0.4)) == [0, 1, 2]


def test_empty_ball_raises():
    with pytest.raises(ValueError):
        ball(chain_space(3), 0, -1.0)


def test_segment_ball_mass_matches_quadrature():
    h = math.pi / 2 / 400
    space = segment_space(h)
    center = int(np.argmin(np.abs(space.coords[:, 0] - math.pi / 4)))
    r = 0.21
    sub = ball(space, center, r)
    c = space.coords[center, 0]
    lo, hi = c - r, c + r
    exact = (hi - lo) / 2 + (math.sin(2 * hi) - math.sin(2 * lo)) / 4
    assert sub.total_mass == pytest.approx(exact, abs=3 * h)


def test_scale_and_ball_commute():
    space = chain_space(7)
    a = ball(scale(space, 2.0), 3, 0.25)
    b = scale(ball(space, 3, 0.5), 2.0)
    assert a.meta["subset"] == b.meta["subset"]
    assert np.allclose(a.dist, b.dist)


# === geodesic evaluation ===

def test_evaluate_endpoints():
    g = uniform_chain_geodesic(11, 2.0)
    assert evaluate(g, 0.0) == 0
    assert evaluate(g, 1.0) == 10
    assert evaluate(g, 0.5) == 5


def test_evaluate_two_node_geodesic_rounds_to_nearest():
    g = DiscreteGeodesic(nodes=(4, 9), times=(0.0, 1.0), length=1.0)
    assert evaluate(g, 0.4) == 4
    assert evaluate(g, 0.6) == 9


def test_evaluate_rejects_out_of_range():
    g = uniform_chain_geodesic(3, 1.0)
    with pytest.raises(ValueError):
        evaluate(g, 1.5)


def test_geodesic_constructor_checks_time_grid():
    with pytest.raises(ValueError):
        DiscreteGeodesic(nodes=(0, 1), times=(0.0, 0.5), length=1.0)
    with pytest.raises(ValueError):
        DiscreteGeodesic(nodes=(0, 1, 2), times=(0.0, 0.6, 0.4), length=1.0)


@pytest.mark.parametrize("times, length, match", [
    ((0.0, math.nan, 1.0), 1.0, "finite and strictly increasing"),
    ((math.nan, 0.5, 1.0), 1.0, "finite and strictly increasing"),
    ((0.0, 0.5, math.nan), 1.0, "finite and strictly increasing"),
    ((0.0, math.inf, 1.0), 1.0, "finite and strictly increasing"),
    ((0.0, 0.5, 1.0), math.nan, "^length must be finite and nonnegative"),
    ((0.0, 0.5, 1.0), math.inf, "^length must be finite and nonnegative"),
    ((0.0, 0.5, 1.0), -1.0, "^length must be finite and nonnegative")])
def test_geodesic_constructor_rejects_non_finite_values(times, length, match):
    """Every comparison with a NaN is false, so NaN times and lengths
    once got through the checks (and broke plan evaluation later)."""
    with pytest.raises(ValueError, match=match):
        DiscreteGeodesic(nodes=(0, 1, 2), times=times, length=length)


# === shortest chains ===

def test_geodesics_between_same_point_is_trivial():
    chains = geodesics_between(chain_space(5), [(2, 2)])
    assert len(chains) == 1
    assert chains[0].nodes == (2, 2)
    assert chains[0].length == 0.0


def test_segment_chain_matches_direct_distance():
    h = math.pi / 2 / 100
    space = segment_space(h)
    chains = geodesics_between(space, [(10, 60)])
    assert len(chains) == 1
    g = chains[0]
    assert g.length == pytest.approx(space.dist[10, 60])
    assert g.nodes == tuple(range(10, 61))
    assert constant_speed_defect(space, g) <= 2 * space.pitch()


def test_constant_speed_invariant_on_returned_chains():
    space = necklace(NecklaceParams(beads=((0.8, 0.4),),
                                    resolution=math.pi / 2 / 120))
    x = space.coords[:, 0]
    y = space.coords[:, 1]
    left = int(np.argmin(np.abs(x - 0.7) + np.abs(y)))
    right = int(np.argmin(np.abs(x - 0.9) + np.abs(y)))
    chains = geodesics_between(space, [(left, right), (right, left)])
    assert len(chains) == 2
    for g in chains:
        assert g.length == pytest.approx(space.dist[left, right])
        assert constant_speed_defect(space, g) <= 2 * space.pitch()


def test_geodesics_between_endpoint_distance_equals_length():
    space = chain_space(9)
    g = geodesics_between(space, [(1, 7)])[0]
    assert space.dist[g.start, g.end] == pytest.approx(g.length)


def test_constant_speed_defect_in_row_blocks_matches_the_full_matrix():
    """On a 1,600-node chain the blocked check equals the full-matrix
    formula and allocates none of its (nodes x nodes) temporaries."""
    space = segment_space(math.pi / 2 / 1600)
    g = geodesics_between(space, [(0, 1599)])[0]
    bent = DiscreteGeodesic(nodes=g.nodes[:800] + (805,) + g.nodes[801:],
                            times=g.times, length=g.length)
    for chain in (g, bent):
        idx = np.asarray(chain.nodes)
        tt = np.asarray(chain.times)
        full = float(np.abs(space.dist[np.ix_(idx, idx)]
                            - np.abs(tt[:, None] - tt[None, :])
                            * chain.length).max())
        assert constant_speed_defect(space, chain) == full
    tracemalloc.start()
    try:
        constant_speed_defect(space, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * 8 * len(g.nodes) ** 2, peak


def test_unreachable_pair_raises():
    dist = np.array([
        [0.0, 1.0, 10.0],
        [1.0, 0.0, 10.0],
        [10.0, 10.0, 0.0],
    ])
    space = FiniteMMS(dist=dist, weight=np.ones(3), meta={"pitch": 1.0})
    with pytest.raises(ValueError):
        geodesics_between(space, [(0, 2)])


# === persistence ===

def load_space_oracle(path):
    """``(dist, weight, coords, meta)`` as ``load_space`` read explicit
    files before it converted each distinct spelling once, kept as an
    oracle: ``json.load``, then ``np.asarray``."""
    with open(path) as fh:
        doc = json.load(fh)
    points = sorted(doc["points"], key=lambda p: p["id"])
    coords = None
    if points and "coords" in points[0]:
        coords = np.array([p["coords"] for p in points], dtype=float)
    return (np.asarray(doc["dist"], dtype=float),
            np.asarray(doc["weights"], dtype=float), coords,
            doc.get("meta", {}))


def same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    return (a.dtype == b.dtype == np.float64 and a.shape == b.shape
            and np.array_equal(a.view(np.int64), b.view(np.int64)))


def read_back(space, path):
    """Check that ``load_space`` gives the bits of ``space``, written to
    ``path``, and the oracle's.  Return "memo" when it converted each
    distinct spelling once, "plain" when json converted every token with
    ``float``."""
    with mock.patch.object(core.json, "loads", wraps=json.loads) as loads:
        back = load_space(path)
    oracle = load_space_oracle(path)
    for got, wrote, old in zip((back.dist, back.weight, back.coords),
                               (space.dist, space.weight, space.coords),
                               oracle):
        assert same_bits(got, wrote) and same_bits(got, old)
    assert back.meta == oracle[3]
    return "plain" if loads.call_args.kwargs["parse_float"] is float else "memo"


def test_save_load_roundtrip_explicit(tmp_path):
    # generated spaces repeat their distances: the memo reads them
    for kind in sorted(GENERATED):
        space = GENERATED[kind]()
        path = tmp_path / f"{kind}.json"
        save_space(space, path)
        assert read_back(space, path) == "memo", kind
        assert load_space(path).meta["pitch"] == space.meta["pitch"]


def test_a_cloud_file_keeps_the_plain_reader(tmp_path):
    # nearly every spelling in the middle of a cloud's file is new
    pts = np.random.default_rng(7).random((200, 2))
    space = FiniteMMS(dist=np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1)),
                      weight=np.ones(200), coords=pts)
    path = tmp_path / "cloud.json"
    save_space(space, path)
    assert read_back(space, path) == "plain"


GENERATED = {
    "segment": lambda: segment_space(math.pi / 2 / 50),
    "circle": lambda: circle_space(1, 24),
    "earring": lambda: hawaiian_truncation(3, 12),
    "necklace": lambda: necklace(NecklaceParams(  # 351 cells
        beads=((0.8, 0.3),), resolution=math.pi / 2 / 300)),
    "ball": lambda: euclidean_ball_grid(2, 0.5, 0.1),
}


@pytest.mark.parametrize("kind", sorted(GENERATED))
def test_recipe_round_trip_is_exact(tmp_path, kind):
    space = GENERATED[kind]()
    assert space.meta["generator"] == kind
    path = tmp_path / "space.json"
    save_space(space, path, dist_mode="recipe")
    assert set(json.loads(path.read_text())) == {"recipe"}
    back = load_space(path)
    assert np.array_equal(back.dist, space.dist)
    assert np.array_equal(back.weight, space.weight)
    assert (back.coords is None and space.coords is None) or np.array_equal(
        back.coords, space.coords)
    # equal as JSON text, so an int stays an int
    assert json.dumps(back.meta, sort_keys=True) == json.dumps(
        space.meta, sort_keys=True)


def test_recipe_refuses_spaces_it_cannot_rebuild(tmp_path):
    circle = GENERATED["circle"]()
    path = tmp_path / "space.json"
    for space in (scale(circle, 2.0), ball(circle, 0, 1.0), two_point()):
        assert "params" not in space.meta
        with pytest.raises(ValueError, match="recipe"):
            save_space(space, path, dist_mode="recipe")
    assert not path.exists()


def test_recipe_refuses_a_space_its_recipe_does_not_generate(tmp_path):
    circle = GENERATED["circle"]()
    path = tmp_path / "space.json"
    changed = (replace(circle, weight=np.arange(1.0, circle.n + 1.0)),
               replace(circle, dist=2.0 * circle.dist),
               replace(circle, coords=circle.coords + 1.0),
               replace(circle, coords=None))
    for space in changed:
        assert space.meta["params"] == circle.meta["params"]
        with pytest.raises(ValueError, match="recipe generates"):
            save_space(space, path, dist_mode="recipe")
    assert not path.exists()


def dump_space_oracle(space, path):
    """The writer ``save_space`` replaced for explicit files, kept as an
    oracle: the whole document through ``json.dump(indent=1)``."""
    points = []
    for i in range(space.n):
        rec = {"id": i}
        if space.coords is not None:
            rec["coords"] = [float(c) for c in space.coords[i]]
        points.append(rec)
    doc = {"points": points,
           "dist": [[float(v) for v in row] for row in space.dist],
           "weights": [float(w) for w in space.weight],
           "meta": _jsonable(space.meta)}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def straddling_space():
    """300 cells, so the rows straddle block boundaries: the first block
    starts with a symmetric corner of distinct values, the rest
    repeats."""
    rows = SAVE_BLOCK // 300
    assert 300 % rows
    idx = np.arange(300)
    dist = np.abs(idx[:, None] - idx[None, :]) * 0.1
    corner = np.triu(np.random.default_rng(5).random((rows, rows)), 1)
    dist[:rows, :rows] = corner + corner.T
    return FiniteMMS(dist=dist, weight=np.ones(300))


def odd_spaces():
    zeros = np.array([[0.0, -0.0, 0.0], [0.0, 0.0, -0.0], [-0.0, -0.0, 0.0]])
    spellings = np.array([1e-05, 1e+16, 5e-324, 1.7976931348623157e+308])
    pts = np.random.default_rng(60).standard_normal((60, 3))
    return {
        "signed-zeros": FiniteMMS(dist=zeros, weight=np.ones(3)),
        # each spelling lies off the zero diagonal
        "exponents": FiniteMMS(dist=np.where(
            np.eye(4, dtype=bool), 0.0,
            spellings[np.add.outer(np.arange(4), np.arange(4)) % 4]),
            weight=spellings),
        "straddling": straddling_space(),
        "cloud-60": FiniteMMS(
            dist=np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1)),
            weight=np.ones(60), coords=pts),
        "one-cell": FiniteMMS(dist=np.zeros((1, 1)), weight=np.ones(1)),
        "nested-meta": FiniteMMS(
            dist=np.array([[0.0, 0.1], [0.1, 0.0]]),
            weight=np.array([1.0 / 3.0, 2.0 / 3.0]),
            coords=np.array([[0.0, -0.0], [1e-17, 123456789.125]]),
            meta={"pitch": 0.1, "params": {"beads": [[0.8, 0.3]],
                                           "deep": {"b": [1, 2.5], "a": None}},
                  "tag": "x, y"}),
    }


@pytest.mark.parametrize("kind", ["necklace", "earring", "segment", "ball",
                                  "one-cell", "nested-meta", "signed-zeros",
                                  "exponents", "straddling", "cloud-60"])
def test_explicit_file_bytes_match_the_json_dump_oracle(tmp_path, kind):
    space = GENERATED[kind]() if kind in GENERATED else odd_spaces()[kind]
    if kind == "ball":
        assert space.coords is not None
    save_space(space, tmp_path / "space.json")
    dump_space_oracle(space, tmp_path / "oracle.json")
    got = (tmp_path / "space.json").read_bytes()
    assert got == (tmp_path / "oracle.json").read_bytes()
    if kind == "signed-zeros":
        assert b"-0.0" in got and b" 0.0" in got
    if kind == "exponents":
        for spelling in (b"1e-05", b"1e+16", b"5e-324",
                         b"1.7976931348623157e+308"):
            assert spelling in got


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def matrices(draw):
    """Small symmetric matrices of finite floats with a zero diagonal,
    whose other entries come from a pool of a few values, so that they
    repeat, or afresh, or from both; the pool favours the zeros of both
    signs."""
    n = draw(st.integers(1, 7))
    pool = st.sampled_from(draw(st.lists(
        st.one_of(st.sampled_from([0.0, -0.0]), FINITE), min_size=1, max_size=4)))
    entry = draw(st.sampled_from([pool, FINITE, st.one_of(pool, FINITE)]))
    m = n * (n - 1) // 2
    dist = np.zeros((n, n))
    rows, cols = np.triu_indices(n, 1)
    dist[rows, cols] = dist[cols, rows] = draw(st.lists(entry, min_size=m,
                                                        max_size=m))
    return dist


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(dist=matrices(), block=st.integers(1, 40))
def test_explicit_file_bytes_match_the_oracle_on_random_matrices(dist, block):
    space = FiniteMMS(dist=dist, weight=np.ones(len(dist)))
    with tempfile.TemporaryDirectory() as work, \
            mock.patch.object(core, "SAVE_BLOCK", block):
        save_space(space, os.path.join(work, "space.json"))
        dump_space_oracle(space, os.path.join(work, "oracle.json"))
        with open(os.path.join(work, "space.json"), "rb") as fh:
            got = fh.read()
        with open(os.path.join(work, "oracle.json"), "rb") as fh:
            assert got == fh.read()


SPECIAL = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e308,
           -1e308, 1e-05, 1e+16]


@st.composite
def symmetric_spaces(draw):
    """Symmetric matrices with a zero diagonal, whose other entries come
    from a pool of a few values or are all distinct, with the special
    values among the candidates; positive weights, and coordinates half
    the time."""
    n = draw(st.integers(1, 12))
    m = n * (n - 1) // 2
    entry = st.one_of(st.sampled_from(SPECIAL), FINITE)
    if draw(st.booleans()):
        pool = draw(st.lists(entry, min_size=1, max_size=4))
        upper = draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))
    else:
        upper = draw(st.lists(entry, min_size=m, max_size=m, unique=True))
    dist = np.zeros((n, n))
    rows, cols = np.triu_indices(n, 1)
    dist[rows, cols] = dist[cols, rows] = upper
    weight = draw(st.lists(st.one_of(
        st.sampled_from([5e-324, 1e-310, 1e308]),
        st.floats(min_value=0.0, exclude_min=True, max_value=1e308)),
        min_size=n, max_size=n))
    coords = None
    if draw(st.booleans()):
        coords = np.array(draw(st.lists(entry, min_size=2 * n,
                                        max_size=2 * n))).reshape(n, 2)
    return FiniteMMS(dist=dist, weight=np.array(weight), coords=coords)


def test_load_matches_the_oracle_on_random_symmetric_matrices():
    choices = set()

    @settings(derandomize=True, database=None, max_examples=150,
              deadline=None)
    @given(space=symmetric_spaces())
    def check(space):
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "space.json")
            save_space(space, path)
            choices.add(read_back(space, path))

    check()
    assert choices == {"memo", "plain"}


def test_load_rejects_a_computed_dist(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"points": [{"id": 0}], "weights": [1.0],
                                "dist": {"mode": "graph"}}))
    with pytest.raises(ValueError, match="matrix"):
        load_space(path)
