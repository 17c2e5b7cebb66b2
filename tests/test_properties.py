"""Properties of the isometry machinery under relabelling, the subgroup
closure against the tuple-based breadth-first closure it replaced, the
condition-(a) scan against the per-map ``fixed_set`` loop it replaced,
and the input contract of ``space gen``.

Relabelling a space by a permutation L (cell a of the new space is cell
L[a] of the old one) conjugates its isometry group: g becomes
L^-1 o g o L, the rows ``invert(L)[g[L]]``.  Group order, the sorted
fixed masses and the condition-(a) gap do not depend on the labels.
"""

import json
import math
import os
import tempfile
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmslab import (
    FiniteMMS,
    ball_indices,
    circle_space,
    condition_a_scan,
    enumerate_isometries,
    euclidean_ball_grid,
    fixed_set,
    generate_subgroup,
    hawaiian_truncation,
    invert,
    load_space,
    save_space,
    segment_space,
)
from mmslab import symmetry
from mmslab.cli import main

SETTINGS = settings(derandomize=True, database=None, max_examples=24,
                    deadline=None)


def cloud(count, seed):
    pts = np.random.default_rng(seed).standard_normal((count, 2))
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    return FiniteMMS(dist=dist, weight=np.ones(count), coords=pts)


def make_space(spec):
    kind, a, b = spec
    if kind == "circle":
        return circle_space(1.0, a)
    if kind == "earring":
        return hawaiian_truncation(a, b)
    if kind == "ball":
        return euclidean_ball_grid(2, a / 10.0, 0.1)
    return cloud(a, b)


SPECS = st.one_of(
    st.tuples(st.just("circle"), st.integers(5, 10), st.just(0)),
    st.tuples(st.just("earring"), st.integers(2, 3), st.sampled_from([8, 10, 12])),
    st.tuples(st.just("ball"), st.integers(2, 3), st.just(0)),
    st.tuples(st.just("cloud"), st.integers(5, 7), st.integers(0, 99)),
)


def relabel(space, labels):
    return FiniteMMS(dist=space.dist[np.ix_(labels, labels)],
                     weight=space.weight[labels],
                     meta={"pitch": space.pitch()})


def sorted_rows(rows):
    rows = np.asarray(rows, dtype=int)
    return rows[np.lexsort(rows.T[::-1])]


@SETTINGS
@given(spec=SPECS, seed=st.integers(0, 2**32 - 1))
def test_relabelling_conjugates_the_isometry_group(spec, seed):
    base = make_space(spec)
    labels = np.random.default_rng(seed).permutation(base.n)
    moved = relabel(base, labels)
    res = enumerate_isometries(base, iso_tol=1e-9)
    back = enumerate_isometries(moved, iso_tol=1e-9)
    assert res.complete and back.complete

    group = np.asarray(res.perms(), dtype=int)
    expected = sorted_rows(np.asarray(invert(labels))[group[:, labels]])
    assert np.array_equal(np.asarray(back.perms()), expected)

    assert (len(generate_subgroup(base, res.perms()))
            == len(generate_subgroup(moved, back.perms())) == len(group))

    def masses(space, maps):
        return sorted(fixed_set(space, m.perm, fix_tol=1e-9).mass
                      for m in maps.maps)

    assert masses(moved, back) == pytest.approx(masses(base, res), rel=1e-12)

    x = int(labels[0])
    s = 0.5 * base.diameter
    gap = condition_a_scan(base, x, s, fix_tol=1e-9, maps=res).gap
    gap_back = condition_a_scan(moved, 0, s, fix_tol=1e-9, maps=back).gap
    assert math.isclose(gap_back, gap, rel_tol=1e-12, abs_tol=1e-12)
    for space, maps, center in ((base, res, x), (moved, back, 0)):
        for fix_tol in (None, 1e-9):
            rep = condition_a_scan(space, center, s, fix_tol, maps=maps)
            assert ((rep.fix_sup, rep.nontrivial, rep.gap)
                    == condition_a_oracle(space, center, s, fix_tol, maps))


# === the condition-(a) scan against the per-map loop ===

def condition_a_oracle(space, x, s, fix_tol, maps):
    """``(fix_sup, nontrivial, gap)`` from one ``fixed_set`` call per
    nontrivial map, the loop ``condition_a_scan`` ran before it gathered
    the moves of every map in one indexing step."""
    ball_mass = float(space.weight[ball_indices(space, x, s)].sum())
    fix_sup, count = 0.0, 0
    for m in maps.maps:
        if np.array_equal(m.perm, np.arange(space.n)):
            continue
        count += 1
        inside = fixed_set(space, m.perm, fix_tol=fix_tol,
                           balls=[(x, s)]).ball_masses[0]
        fix_sup = max(fix_sup, inside)
    return fix_sup, count, ball_mass - fix_sup


def test_condition_a_matches_the_per_map_oracle_on_the_earring():
    sp = hawaiian_truncation(6, 24)
    maps = enumerate_isometries(sp, iso_tol=1e-9)
    assert maps.complete and len(maps.maps) == 64
    for x in (0, 5, 17, 60, sp.n - 1):
        for s in (0.0, 0.3, 1.0, 0.5 * sp.diameter, 2.0 * sp.diameter):
            for fix_tol in (None, 1e-9, 0.2):
                rep = condition_a_scan(sp, x, s, fix_tol, maps=maps)
                assert ((rep.fix_sup, rep.nontrivial, rep.gap)
                        == condition_a_oracle(sp, x, s, fix_tol, maps))


# === the closure against the tuple oracle ===

def closure_oracle(space, gens, budget):
    """Breadth-first closure over permutation tuples, the representation
    ``generate_subgroup`` used before it composed whole levels of index
    rows at once.  Returns (elements, generators, closed)."""
    def compose(outer, inner):
        return tuple(outer[i] for i in inner)

    def inverse(perm):
        out = [0] * len(perm)
        for i, v in enumerate(perm):
            out[v] = i
        return tuple(out)

    gen_perms = [tuple(int(v) for v in p) for p in gens]
    identity = tuple(range(space.n))
    seeds = set(gen_perms) | {inverse(p) for p in gen_perms} | {identity}
    elements = set(seeds)
    frontier = list(seeds)
    closed = True
    while frontier:
        nxt = []
        for a in frontier:
            for b in seeds:
                c = compose(a, b)
                if c not in elements:
                    elements.add(c)
                    nxt.append(c)
        if len(elements) > budget:
            closed = False
            break
        frontier = nxt
    return sorted(elements), sorted(set(gen_perms)), closed


CLOSURE_SPECS = [("circle", 8, 0), ("circle", 9, 0), ("earring", 3, 8),
                 ("earring", 2, 12), ("ball", 3, 0), ("cloud", 6, 4)]


@pytest.mark.parametrize("spec", CLOSURE_SPECS)
@pytest.mark.parametrize("budget", [3, 8, 16, 20, 40, 4096])
def test_closure_matches_the_tuple_oracle(spec, budget, monkeypatch):
    base = make_space(spec)
    labels = np.random.default_rng(len(spec[0]) + budget).permutation(base.n)
    space = relabel(base, labels)
    perms = np.asarray(enumerate_isometries(space, iso_tol=1e-9).perms())
    nontrivial = [p for p in perms if np.any(p != np.arange(space.n))]
    # the listing ceiling plays the budget of the oracle
    monkeypatch.setattr(symmetry, "MAX_LISTED", budget)
    for gens in (perms, nontrivial[:1], nontrivial[-2:], nontrivial[1::3]):
        sub = generate_subgroup(space, gens)
        elements, generators, closed = closure_oracle(space, gens, budget)
        assert np.array_equal(np.asarray(sub.generators).reshape(-1, space.n),
                              np.asarray(generators).reshape(-1, space.n))
        assert sub.closed == closed
        if closed:
            assert np.array_equal(np.asarray(sub.elements),
                                  np.asarray(elements).reshape(-1, space.n))
        else:
            # an open closure holds more than the budget, all of the group,
            # but not the oracle's breadth-first levels
            group, _, _ = closure_oracle(space, gens, math.inf)
            assert len(sub) > budget
            assert {tuple(row) for row in sub.elements.tolist()} <= set(group)


# === the input contract of space gen ===

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "src" / "mmslab" / "schemas"
     / "report.schema.json").read_text())

EXTREMES = st.sampled_from([0, 0.0, -1, -0.5, 1e308, -1e308, math.nan,
                            math.inf, -math.inf])
WRONG_TYPES = st.sampled_from(["x", "12", None, [1], {}, True])


def run_report(argv, work):
    """Run the CLI with its report in ``work``; returns the exit code and
    the schema-valid report, an error object exactly when it exits 1."""
    path = os.path.join(work, "report.json")
    rc = main(argv + ["--report", path])
    with open(path) as fh:
        report = json.load(fh)
    jsonschema.validate(report, SCHEMA)
    assert rc in (0, 1)
    assert ("error" in report) == (rc == 1)
    return rc, report


def value(finite):
    """A parameter: a sane value from ``finite``, small enough that a
    space builds in milliseconds, an extreme, or one of the wrong
    type."""
    return st.one_of(finite, EXTREMES, WRONG_TYPES)


GEN_DOCS = st.one_of(
    st.tuples(st.just("segment"), st.fixed_dictionaries(
        {"resolution": value(st.floats(0.05, 1.5))})),
    st.tuples(st.just("circle"), st.fixed_dictionaries(
        {"radius": value(st.floats(0.1, 10.0)),
         "resolution": value(st.integers(3, 40))})),
    st.tuples(st.just("earring"), st.fixed_dictionaries(
        {"n": value(st.integers(1, 4)),
         "resolution": value(st.integers(3, 16))})),
    st.tuples(st.just("necklace"), st.fixed_dictionaries(
        {"beads": st.one_of(st.lists(st.lists(value(st.floats(0.05, 1.5)),
                                              min_size=2, max_size=2),
                                     max_size=2), EXTREMES, WRONG_TYPES),
         "resolution": value(st.floats(0.05, 0.5))})),
    st.tuples(st.just("ball"), st.fixed_dictionaries(
        {"k": value(st.integers(1, 3)), "r": value(st.floats(0.1, 1.0)),
         "resolution": value(st.floats(0.3, 1.0))})),
)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(doc=GEN_DOCS, mode=st.sampled_from(["explicit", "recipe"]))
def test_space_gen_ends_in_a_report_or_an_error_object(doc, mode):
    """Any ``--params`` document ends in a report with a finite diameter
    and exit 0, whose space file loads back, or in an error object with
    exit 1; never in a traceback."""
    kind, params = doc
    with tempfile.TemporaryDirectory() as work:
        out = os.path.join(work, "space.json")
        rc, report = run_report(["space", "gen", "--kind", kind, "--params",
                                 json.dumps(params), "--out", out,
                                 "--dist-mode", mode], work)
        if rc == 0:
            diameter = report["results"]["diameter"]
            assert isinstance(diameter, float) and math.isfinite(diameter)
            assert load_space(out).n == report["results"]["cells"]


POINTS = value(st.integers(0, 15))
MEASURE_DOCS = st.one_of(
    st.fixed_dictionaries({"point": POINTS}),
    st.fixed_dictionaries({"uniform": st.one_of(
        st.lists(POINTS, max_size=4), EXTREMES, WRONG_TYPES)}),
    st.fixed_dictionaries({"atoms": st.lists(st.fixed_dictionaries(
        {"point": POINTS, "mass": value(st.floats(0.0, 1.0))}), max_size=3)}),
    WRONG_TYPES,
)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(mu0=MEASURE_DOCS, mu1=MEASURE_DOCS)
def test_ot_solve_ends_in_a_report_or_an_error_object(mu0, mu1):
    """Any pair of measure documents on the 16-cell segment ends in a
    report with a finite cost and exit 0, or in an error object with
    exit 1."""
    with tempfile.TemporaryDirectory() as work:
        space = os.path.join(work, "space.json")
        save_space(segment_space(0.1), space)
        rc, report = run_report(["ot", "solve", "--space", space,
                                 "--mu0", json.dumps(mu0),
                                 "--mu1", json.dumps(mu1)], work)
        if rc == 0:
            cost = report["results"]["cost"]
            assert isinstance(cost, float) and math.isfinite(cost)
