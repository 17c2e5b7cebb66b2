"""Seeded task lists for the four benchmark workloads.

A task is one certified check a lab user would run: it calls public mmslab
functions (or ``mmslab.cli.main``) on inputs made here from the seed, checks
the verdict, and returns ``(ok, summary)``.  The summary feeds the
workload digest, so it holds results only, never times or paths that
change between runs.

Sizes are fixed per workload; the seed moves bead positions, relabels
cells, and draws measures, points and cell choices.  Runs with different
seeds therefore do comparable amounts of work on different inputs.

Every workload also carries the smoke tasks of the other three, one
background task each, so each traced run touches every layer a little and
no per-layer time reads zero.

Each full list has 30 tasks (28 for necklace) in cost classes a factor of
about two apart, repeated within a class.  The median task and the tail
task (the 20th of 30, 18th of 28, which has ten tasks beyond it) then each
fall inside a class of near-identical tasks rather than on the edge
between two classes, so timing noise does not flip them from one class to
the next.

Functions are looked up on the ``mmslab`` modules at call time (``mm.x``,
``cli.main``), which lets a traced pass substitute its wrappers.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import mmslab as mm
from mmslab import cli

HALF_PI = math.pi / 2.0

WORKLOADS = ("necklace", "transport", "symmetry", "cli")


@dataclass
class Task:
    name: str
    run: Callable            # run(tracer) -> (ok, summary)
    known_defect: str = ""   # a failure the benchmark expects at this commit


# === necklace ===

# (bead radii, fibers across [0, pi/2]) and copies per pass, in cost
# classes a factor of about two apart; 260 to 980 cells, so the n x n
# matrices run from 0.5 MB to 8 MB, across the 2 MB per-core L2
NECKLACE_FULL = (
    (((0.3,), 225), 3), (((0.3, 0.3), 225), 3), (((0.4, 0.4, 0.3), 225), 2),
    (((0.3, 0.3), 315), 6),
    (((0.3,), 450), 6), (((0.3, 0.3), 420), 2),
    (((0.4, 0.4, 0.3), 340), 1),
    (((0.3,), 560), 1), (((0.3,), 675), 1),
)
NECKLACE_SMOKE = ((((0.3,), 120), 1), (((0.3, 0.3), 120), 1))


def _expand(classes):
    return [spec for spec, copies in classes for _ in range(copies)]


def _bead_layout(rng, radii):
    """Bead centers: consecutive bead intervals 0.3 apart, the chain
    shifted at random, with at least 0.12 of bare spine before the first
    bead (room for the vertex scan).  The fixed spacing keeps the cost of
    the bead-to-bead schedule the same for every seed."""
    lead, gap, tail = 0.12, 0.3, 0.02
    span = sum(r / 2 for r in radii) + gap * (len(radii) - 1)
    x = lead + rng.uniform(0.0, HALF_PI - lead - tail - span)
    beads = []
    for r in radii:
        beads.append((x + r / 4, r))
        x += r / 2 + gap
    return tuple(beads)


def _necklace_task(name, radii, fibers, rng):
    beads = _bead_layout(rng, radii)
    params = mm.NecklaceParams(beads=beads, resolution=HALF_PI / fibers)

    def run(tr):
        sp = mm.necklace(params)
        val = mm.validate_space(sp)
        ok = val.ok
        out = {"cells": sp.n, "diameter": sp.diameter, "mass": sp.total_mass,
               "worst_triangle": val.worst_triangle_defect,
               "triples": val.triples_checked}
        _, fx, _, fcount, fstart, bead = mm.necklace_fibers(sp)
        if len(beads) == 2:
            (x1, r1), (x2, r2) = beads
            src_f = int(np.argmin(np.abs(fx - (x1 - r1 / 15))))
            source = int(fstart[src_f] + fcount[src_f] // 2)
            tgt_f = int(np.argmin(np.abs(fx - (x2 - 0.53 * r2 / 4))))
            sched = mm.necklace_schedule(sp, source, tgt_f, 2)
            dens = mm.schedule_density_check(sp, sched)
            ok = ok and dens.all_ok and dens.marginal_defect <= 1e-9
            out["density"] = [dens.worst_slack, dens.ratio_defect,
                              dens.marginal_defect, len(dens.rows)]
        # the diamond vertex: last spine cell before the first bead's tip
        tip = beads[0][0] - beads[0][1] / 4
        spine = np.flatnonzero((bead < 0) & (fx < tip))
        vertex = int(fstart[spine[np.argmax(fx[spine])]])
        rep = mm.epsilon_regular_scan(sp, vertex, eps=0.02, delta=0.06,
                                      k_set=(1,), subsample=10)
        ok = ok and rep.verdict(1) != "in"
        out["vertex"] = [rep.verdict(1), [r.estimate for r in rep.rows]]
        return ok, out

    return Task(name, run)


def necklace_tasks(rng, smoke, work):
    specs = _expand(NECKLACE_SMOKE if smoke else NECKLACE_FULL)
    return [_necklace_task(f"necklace/{i:02d}-{len(r)}b-{f}", r, f, rng)
            for i, (r, f) in enumerate(specs)]


# === transport ===

def _cloud(rng, n, spread=1.0):
    pts = rng.uniform(0.0, spread, size=(n, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    return mm.FiniteMMS(dist=np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)),
                        weight=np.ones(n))


def _lift_task(name, cells, rng):
    """Point-to-set plan on a segment: LP, lift, and the criterion-3
    contraction check at 129 Chebyshev times."""
    source = int(rng.integers(0, max(1, cells // 10)))
    width = cells // 4
    start = int(rng.integers(cells // 2, cells - width + 1))

    def run(tr):
        sp = mm.segment_space(HALF_PI / cells)
        res = mm.solve_w2(sp, mm.delta(sp, source),
                          mm.uniform_on(sp, range(start, start + width)))
        plan = mm.lift_to_geodesic_plan(sp, res.coupling)
        rep = mm.mcp_check(sp, plan, t_samples=mm.chebyshev_times(129))
        cost_gap = abs(mm.plan_cost(plan) - res.cost)
        ok = rep.ok and cost_gap <= 1e-9 and rep.marginal_defect <= 1e-9
        return ok, {"cost": res.cost, "atoms": len(plan.atoms),
                    "worst_slack": rep.worst_slack, "worst_t": rep.worst_t,
                    "worst_cell": rep.worst_cell}

    return Task(name, run)


def _lp_task(name, atoms, rng):
    """Set-to-set LP on a seeded cloud, then the uniqueness probe."""
    sp = _cloud(rng, 2 * atoms)
    mu0 = np.zeros(sp.n)
    mu1 = np.zeros(sp.n)
    mu0[:atoms] = rng.uniform(0.2, 1.0, size=atoms)
    mu1[atoms:] = rng.uniform(0.2, 1.0, size=atoms)
    mu0 /= mu0.sum()
    mu1 /= mu1.sum()

    def run(tr):
        res = mm.solve_w2(sp, mu0, mu1)
        probe = mm.uniqueness_probe(sp, mu0, mu1)
        c = res.coupling
        marg = max(np.max(np.abs(c.row_marginal() - mu0[c.source_idx])),
                   np.max(np.abs(c.col_marginal() - mu1[c.target_idx])))
        ok = (marg <= 1e-9
              and abs(probe.base.cost - res.cost) <= 1e-9 * max(1.0, res.cost))
        return ok, {"cost": res.cost, "unique": probe.unique,
                    "support": int((c.matrix > 1e-12).sum())}

    return Task(name, run)


# support sizes of the brute-force instances: 4 x 5 and 5 x 5 are left
# out because their enumeration time spreads over two to three orders of
# magnitude from one draw to the next
BRUTE_SUPPORTS = ((2, 3), (3, 3), (3, 4), (4, 4), (4, 4), (2, 5), (3, 5),
                  (3, 5))


def _brute_task(name, rng, supports=BRUTE_SUPPORTS):
    """Tiny instances whose LP cost must match exhaustive enumeration."""
    cases = []
    for k0, k1 in supports:
        sp = _cloud(rng, max(k0, k1) + int(rng.integers(0, 4)),
                    spread=float(rng.uniform(0.5, 2.0)))
        masses = []
        for k in (k0, k1):
            idx = rng.choice(sp.n, size=k, replace=False)
            mu = mm.as_measure(sp, {int(i): float(rng.uniform(0.2, 1.0))
                                    for i in idx})
            masses.append(mu / mu.sum())
        cases.append((sp, *masses))

    def run(tr):
        exact = [mm.brute_force_w2(sp, a, b) for sp, a, b in cases]
        lp = [mm.solve_w2(sp, a, b).cost for sp, a, b in cases]
        worst = max(abs(u - v) for u, v in zip(lp, exact))
        return worst <= 1e-9, {"exact": exact}

    return Task(name, run)


def _competitor_task(name, rng):
    """Criterion 6: a second optimal plan through the reflection of the
    largest circle of earring(3, 24), certified by the probe as well."""
    m = 24
    offset = int(rng.integers(1, m - 5))
    x = int(rng.integers(1, m - 1))
    while 2 * x == m:
        x = int(rng.integers(1, m - 1))

    def run(tr):
        sp = mm.hawaiian_truncation(3, m)
        perm = np.arange(sp.n)
        perm[1:m] = perm[1:m][::-1]          # reflect circle 0 onto itself
        source = [m + offset + j for j in range(4)]   # cells of circle 1
        mu0 = mm.uniform_on(sp, source)
        mu1 = mm.as_measure(sp, {x: 0.5, int(perm[x]): 0.5})
        plan = mm.lift_to_geodesic_plan(sp, mm.solve_w2(sp, mu0, mu1).coupling)
        comp = mm.symmetrized_competitor(sp, perm, plan, x=x, iso_tol=1e-9)
        rep = mm.verify_competitor(sp, plan, comp, tol=1e-9)
        probe = mm.uniqueness_probe(sp, mu0, mu1)
        return rep.ok and not probe.unique, {
            "marginal_defect": rep.marginal_defect,
            "cost_defect": rep.cost_defect,
            "difference": rep.plan_difference, "unique": probe.unique}

    return Task(name, run)


def _long_lift_task(name, rng):
    """End-to-end lift on the 1,600-cell segment of criterion 10."""
    a = int(rng.integers(0, 8))
    b = 1599 - int(rng.integers(0, 8))

    def run(tr):
        sp = mm.segment_space(HALF_PI / 1600)
        res = mm.solve_w2(sp, mm.delta(sp, a), mm.delta(sp, b))
        plan = mm.lift_to_geodesic_plan(sp, res.coupling)
        return True, {"cost": res.cost, "nodes": len(plan.atoms[0][0].nodes)}

    return Task(name, run,
                known_defect="geodesics_between recurses once per path node "
                             "and raises RecursionError on this path")


def transport_tasks(rng, smoke, work):
    if smoke:
        return [_lift_task("transport/lift-40", 40, rng),
                _lp_task("transport/lp-8", 8, rng),
                _brute_task("transport/brute", rng, BRUTE_SUPPORTS[:3]),
                _competitor_task("transport/competitor", rng)]
    tasks = [_competitor_task(f"transport/competitor-{i}", rng)
             for i in range(2)]
    tasks += [_lift_task(f"transport/lift-90-{i}", 90, rng) for i in (3, 4)]
    tasks += [_brute_task(f"transport/brute-{i}", rng) for i in range(4)]
    tasks.append(_long_lift_task("transport/lift-1600", rng))
    for cells, atoms, copies in ((90, 45, 3), (150, 75, 3)):
        for i in range(copies):
            tasks.append(_lift_task(f"transport/lift-{cells}-{i}", cells, rng))
            tasks.append(_lp_task(f"transport/lp-{atoms}-{i}", atoms, rng))
    for cells, copies in ((180, 2), (210, 2), (260, 1)):
        tasks += [_lift_task(f"transport/lift-{cells}-{i}", cells, rng)
                  for i in range(copies)]
    tasks.append(_lp_task("transport/lp-75-3", 75, rng))
    return tasks


# === symmetry ===

SYMMETRY_FULL = (
    (("earring", 3, 16), 1), (("earring", 3, 24), 1), (("earring", 4, 16), 1),
    (("earring", 4, 32), 1), (("circle", 12), 1), (("circle", 16), 1),
    (("ball", 2, 3), 1), (("ball", 2, 4), 1), (("ball", 2, 5), 1),
    (("earring", 5, 24), 3), (("circle", 20), 3),
    (("circle", 24), 6),
    (("earring", 6, 20), 1), (("earring", 6, 24), 1), (("circle", 28), 1),
    (("circle", 30), 1), (("circle", 32), 1), (("ball", 3, 3), 1),
)
SYMMETRY_SMOKE = ((("earring", 3, 8), 1), (("circle", 8), 1),
                  (("ball", 2, 2), 1))


def _symmetric_space(spec):
    """The space and the order of its isometry group."""
    kind = spec[0]
    if kind == "earring":
        return mm.hawaiian_truncation(spec[1], spec[2]), 2 ** spec[1]
    if kind == "circle":
        return mm.circle_space(1.0, spec[1]), 2 * spec[1]
    k, cells = spec[1], spec[2]
    return mm.euclidean_ball_grid(k, 1.0, 1.0 / cells), 8 if k == 2 else 48


def _symmetry_task(name, spec, rng):
    """Enumerate the isometries of a relabeled space, close them into a
    group, and run the fixed-set diagnostics on the enumeration."""
    n = _symmetric_space(spec)[0].n
    labels = rng.permutation(n)
    x = int(rng.integers(0, n))

    def run(tr):
        base, order = _symmetric_space(spec)
        sp = mm.FiniteMMS(dist=base.dist[np.ix_(labels, labels)],
                          weight=base.weight[labels],
                          meta={"pitch": base.pitch()})
        res = mm.enumerate_isometries(sp, iso_tol=1e-9)
        group = mm.generate_subgroup(sp, [m.perm for m in res.maps])
        fixed = [mm.fixed_set(sp, m.perm, fix_tol=1e-9).mass
                 for m in res.maps]
        cond = mm.condition_a_scan(sp, x, 2.0 * sp.diameter, fix_tol=1e-9,
                                   maps=res)
        probe = mm.small_subgroup_probe(sp, 2.0 * sp.pitch(), maps=res)
        ok = (res.complete and len(res.maps) == order
              and all(m.measure_defect <= 1e-9 for m in res.maps)
              and group.closed and len(group) == order
              and abs(max(fixed) - sp.total_mass) <= 1e-9
              and cond.holds and cond.complete and not probe.inconclusive)
        return ok, {"maps": len(res.maps), "nodes": res.nodes,
                    "fixed": sorted(fixed), "gap": cond.gap,
                    "probe": [probe.found, probe.candidates]}

    return Task(name, run)


def symmetry_tasks(rng, smoke, work):
    specs = _expand(SYMMETRY_SMOKE if smoke else SYMMETRY_FULL)
    return [_symmetry_task(f"symmetry/{i:02d}-" + "-".join(map(str, s)), s,
                           rng) for i, s in enumerate(specs)]


# === cli ===

@contextlib.contextmanager
def _inside(work):
    """Run with ``work`` as the current directory, so the CLI sees bare
    file names and its reports do not depend on where the checkout is."""
    home = os.getcwd()
    os.chdir(work)
    try:
        yield
    finally:
        os.chdir(home)


def _verb(tr, work, argv, report):
    """Run one verb twice in process; the reports must be byte-identical.
    Returns the parsed report, or None when a run exits nonzero or the
    two reports differ."""
    texts = []
    with _inside(work):
        for _ in range(2):
            with tr.span("cli." + "_".join(argv[:2]).replace("-", "_")):
                code = cli.main(argv + ["--report", report])
            with open(report, "rb") as fh:
                texts.append(fh.read())
            tr.count("cli.report_kb", len(texts[-1]) / 1e3)
            if code != 0:
                return None
    return json.loads(texts[0]) if texts[0] == texts[1] else None


def _cli_inputs(rng, work, smoke):
    """Input files for the read verbs, written with the library."""
    spaces = {
        "seg": mm.segment_space(HALF_PI / (60 if smoke else 140)),
        "earring": mm.hawaiian_truncation(3, 8) if smoke
        else mm.hawaiian_truncation(4, 24),
        "neck": mm.necklace(mm.NecklaceParams(
            beads=((0.7, 0.3),), resolution=HALF_PI / (80 if smoke else 220))),
    }
    # 6 and 7 points: a pair with an 8-point cloud now and then takes
    # the exact search seconds instead of milliseconds (13 s per call for
    # one drawn pair), which would make a run's time depend on the draw
    for i in range(2 if smoke else 12):
        spaces[f"cloud{i}"] = _cloud(rng, 6 + i % 2)
    for key, sp in spaces.items():
        mm.save_space(sp, os.path.join(work, f"{key}.json"))
    return spaces


def _gen_task(name, work, kind, params, mode="explicit", defect=""):
    """``space gen``, then reload the file and compare it with the
    generator's own matrix."""
    out = name.replace("/", "_") + ".space.json"

    def run(tr):
        doc = _verb(tr, work, ["space", "gen", "--kind", kind, "--params",
                               json.dumps(params), "--out", out,
                               "--dist-mode", mode], out + ".report")
        if doc is None:
            return False, {"report": None}
        loaded = mm.load_space(os.path.join(work, out))
        if kind == "necklace":
            ref = mm.necklace(mm.NecklaceParams(
                beads=tuple(map(tuple, params["beads"])),
                resolution=params["resolution"]))
        else:
            ref = mm.hawaiian_truncation(params["n"], params["resolution"])
        gap = float(np.max(np.abs(loaded.dist - ref.dist)))
        return gap <= 1e-9, {"results": doc["results"], "reload_gap": gap}

    return Task(name, run, known_defect=defect)


def _read_task(name, work, argv, check):
    report = name.replace("/", "_") + ".report"

    def run(tr):
        doc = _verb(tr, work, argv, report)
        if doc is None:
            return False, {"report": None}
        return bool(check(doc["results"])), doc["results"]

    return Task(name, run)


def cli_tasks(rng, smoke, work):
    spaces = _cli_inputs(rng, work, smoke)
    seg, neck = spaces["seg"], spaces["neck"]
    circles = spaces["earring"].meta["circles"]
    clouds = [k for k in spaces if k.startswith("cloud")]
    bead = round(float(rng.uniform(0.4, 1.1)), 6)

    def gen_earring(i):
        return _gen_task(f"cli/gen-earring-{i}", work, "earring",
                         {"n": 3 if smoke else 5,
                          "resolution": 8 if smoke else 32})

    def gen_necklace(i, fibers):
        return _gen_task(f"cli/gen-necklace-{i}", work, "necklace",
                         {"beads": [[bead, 0.3]],
                          "resolution": HALF_PI / fibers})

    def validate(i, key):
        return _read_task(f"cli/validate-{key}-{i}", work,
                          ["space", "validate", "--space", key + ".json"],
                          lambda res: res["ok"])

    def iso_enum(i):
        return _read_task(
            f"cli/iso-enum-{i}", work,
            ["iso", "enum", "--space", "earring.json", "--iso-tol", "1e-9"],
            lambda res: res["complete"] and res["count"] == 2 ** circles)

    def point_to_block():
        x = int(rng.integers(0, seg.n // 8))
        lo = int(rng.integers(seg.n // 2, 3 * seg.n // 4))
        return x, list(range(lo, lo + seg.n // 4))

    def ot_solve(i):
        x, block = point_to_block()
        return _read_task(
            f"cli/ot-solve-{i}", work,
            ["ot", "solve", "--space", "seg.json",
             "--mu0", json.dumps({"point": x}),
             "--mu1", json.dumps({"uniform": block})],
            lambda res: res["cost"] > 0 and math.isclose(
                sum(m for _, _, m in res["coupling"]), 1.0, abs_tol=1e-9))

    def mcp_verify(i):
        x, block = point_to_block()
        return _read_task(
            f"cli/mcp-verify-{i}", work,
            ["mcp", "verify", "--space", "seg.json", "--x", str(x),
             "--A", ",".join(map(str, block))],
            lambda res: res["ok"])

    def gh_exact(i):
        a, b = rng.choice(len(clouds), size=2, replace=False)
        return _read_task(
            f"cli/gh-exact-{i}", work,
            ["gh", "exact", "--space", clouds[a] + ".json",
             "--space2", clouds[b] + ".json"],
            lambda res: res["value"] >= res["lower_bound"] * (1 - 1e-10)
            and math.isclose(2 * res["value"], res["distortion"],
                             rel_tol=1e-10))

    def gh_scan(i):
        # one center in each quarter of the cells, so every seed scans
        # both spine and bead
        x = int(rng.integers(i * neck.n // 4, (i + 1) * neck.n // 4))
        return _read_task(
            f"cli/gh-scan-{i}", work,
            ["gh", "scan", "--space", "neck.json", "--x", str(x),
             "--eps", "0.1", "--delta", "0.3", "--k", "1,2,3",
             "--r-samples", "3", "--subsample", "6"],
            lambda res: len(res["rows"]) == 9
            and all(row["estimate"] >= 0 for row in res["rows"]))

    if smoke:
        return [gen_earring(0), validate(0, "seg"), validate(0, "neck"),
                iso_enum(0), ot_solve(0), mcp_verify(0), gh_exact(0),
                gh_scan(0)]
    tasks = [gh_exact(i) for i in range(4)] + [iso_enum(0)]
    tasks += [ot_solve(i) for i in range(2)] + [validate(0, "seg")]
    tasks += [validate(i, "neck") for i in range(3)]
    tasks += [gen_earring(i) for i in range(2)]
    tasks.append(_gen_task(
        "cli/gen-necklace-graph", work, "necklace",
        {"beads": [[bead, 0.3]], "resolution": HALF_PI / 300}, mode="graph",
        defect="graph dist mode reloads a necklace through an L-inf "
               "neighbor graph that is not its fiber adjacency"))
    tasks += [gh_scan(i) for i in range(4)]
    tasks += [mcp_verify(i) for i in range(7)]
    tasks += [gen_necklace(0, 300), gen_necklace(1, 240)]
    return tasks


TASK_LISTS = {"necklace": necklace_tasks, "transport": transport_tasks,
              "symmetry": symmetry_tasks, "cli": cli_tasks}


def build(workload, seed, work, smoke=False):
    """The task list of one workload: its own tasks, then the smoke tasks
    of the other workloads.  ``work`` is a directory for input files."""
    os.makedirs(work, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    tasks = TASK_LISTS[workload](rng, smoke, work)
    for other in WORKLOADS:
        if other != workload:
            sub = os.path.join(work, "bg-" + other)
            os.makedirs(sub, exist_ok=True)
            bg_rng = np.random.default_rng([seed, WORKLOADS.index(other), 1])
            smoke_tasks = TASK_LISTS[other](bg_rng, True, sub)
            tasks.append(_background(other, smoke_tasks))
    return tasks


def _background(workload, smoke):
    """The smoke tasks of another workload, run as one task."""
    def run(tr):
        results = [task.run(tr) for task in smoke]
        return all(ok for ok, _ in results), [out for _, out in results]

    return Task(f"background/{workload}", run)
