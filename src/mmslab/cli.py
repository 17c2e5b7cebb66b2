"""Command line front end.

Every verb loads JSON inputs, runs one library operation, and emits a
report: JSON by default, CSV for the tabular sections when ``--csv`` is
given.  Identical flags and input files produce byte-identical reports.
Exit codes: 0 for a completed run, 1 for a usage error or for any
failure after parsing (with a machine-readable error object on the
report stream), 2 when the verdict is inconclusive and ``--strict`` was
requested.
"""

import argparse
import csv
import functools
import json
import math
import platform
import re
import sys
from dataclasses import fields

import numpy as np
import scipy        # only its version string: scipy's submodules load on use

from mmslab import __version__
from mmslab.contraction import (chebyshev_times, mcp_check, necklace_schedule,
                                scalar_bound, schedule_density_check)
from mmslab.core import (DIST_MODES, cell_id, load_space, require_seed,
                         save_space, validate_space)
from mmslab.generators import GENERATORS, generate
from mmslab.regularity import (epsilon_regular_scan, gh_exact, gh_lower_bound,
                               regular_set_measure)
from mmslab.symmetry import (DEFAULT_ISO_TOL, DEFAULT_NODE_BUDGET,
                             MAX_MOTION_DIM, EuclideanIsometry,
                             condition_a_scan, critical_scale, displacement,
                             enumerate_isometries, euclidean_power_escape,
                             fixed_set, small_subgroup_probe)
from mmslab.transport import (as_measure, delta, lift_to_geodesic_plan,
                              solve_w2, symmetrized_competitor, uniform_on,
                              uniqueness_probe, verify_competitor)


# === argument plumbing ===

class _Parser(argparse.ArgumentParser):
    """Argparse variant that exits 1 (not 2) on bad usage, and that reads
    a negative number in exponent form (``--cushion -1e-9``) as a value,
    not as a flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _ids(text):
    """Cell id list, JSON ("[0,1,2]") or comma separated ("0,1,2"), as
    parsed: ``cell_id`` checks each id."""
    text = text.strip()
    return json.loads(text if text.startswith("[") else f"[{text}]")


def _k_set(text):
    return tuple(int(v) for v in text.split(","))

def _ball_spec(text):
    c, r = text.split(":")
    return int(c), float(r)


def _measure(space, doc):
    """Mass vector from a measure document.

    The canonical form is {"atoms": [{"point": i, "mass": m}, ...]};
    {"point": i} and {"uniform": [ids]} are accepted shorthands; a
    document of another shape raises ``ValueError`` naming these forms.
    """
    if isinstance(doc, dict):
        if "atoms" in doc:
            atoms = doc["atoms"]
            if isinstance(atoms, list) and all(
                    isinstance(a, dict) and {"point", "mass"} <= a.keys()
                    for a in atoms):
                return as_measure(space,
                                  [(a["point"], a["mass"]) for a in atoms])
        elif "point" in doc:
            return delta(space, doc["point"])
        elif isinstance(doc.get("uniform"), list):
            return uniform_on(space, doc["uniform"])
    raise ValueError('measure must be {"atoms": [...]}, {"point": i},'
                     ' or {"uniform": [ids]}')


def _coupling_rows(coupling):
    return [[int(i), int(j), float(m)] for i, j, m in coupling.entries()]


# === report emission ===

def _sig12(obj):
    """Copy with floats rounded to 12 significant digits; non-finite
    values become strings so the report stays strict JSON."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not math.isfinite(v):
            return repr(v)
        return float(f"{v:.12g}")
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): _sig12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_sig12(v) for v in obj]
    return obj


def _write(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _emit_json(doc, path):
    _write(json.dumps(_sig12(doc), indent=1, sort_keys=True) + "\n", path)


def _csv_cell(v):
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v)).lower()
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    return str(v)


def _emit_csv(header, rows, path):
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(v) for v in row])
    _write(buf.getvalue(), path)


def _fields(obj, *drop, **extra):
    """Results dict of a result dataclass: its fields except those named
    in ``drop``, plus the computed values in ``extra``.  ``_sig12``
    turns the tuples into lists and the JSON keys are sorted on output."""
    out = {f.name: getattr(obj, f.name) for f in fields(obj)
           if f.name not in drop}
    out.update(extra)
    return out


# === verb handlers ===
# Each handler takes the parsed arguments and the space of ``--space``
# (None for the verbs without one), which ``main`` has loaded and checked
# ``--x`` against.  It returns (anchor, results, inconclusive, table):
# anchor names the paper's statement behind the check; table is (header,
# rows) for the verbs with a tabular section, else None.

def _cmd_space_gen(args, _):
    sp = generate(args.kind, args.params)
    save_space(sp, args.out, dist_mode=args.dist_mode)
    results = {
        "kind": args.kind,
        "cells": sp.n,
        "total_mass": sp.total_mass,
        "diameter": sp.diameter,
        "pitch": sp.pitch(),
        "path": args.out,
    }
    anchor = {"segment": "Example 5.2", "circle": "Example 5.1",
              "earring": "Example 5.1", "necklace": "Example 5.2",
              "ball": "§2.1"}[args.kind]
    return anchor, results, False, None


def _cmd_space_validate(args, sp):
    rep = validate_space(sp, seed=args.seed)
    inconclusive = rep.ok and rep.certificate == "sample"
    return "§2.1", _fields(rep, ok=rep.ok), inconclusive, None


def _cmd_ot_solve(args, sp):
    res = solve_w2(sp, _measure(sp, args.mu0), _measure(sp, args.mu1))
    results = _fields(res, "duals", coupling=_coupling_rows(res.coupling),
                      w2=res.w2)
    return "Eq. eq:w-d", results, False, None


def _cmd_ot_probe(args, sp):
    res = uniqueness_probe(sp, _measure(sp, args.mu0), _measure(sp, args.mu1),
                           tol=args.tol, seed=args.seed, draws=args.draws)
    results = _fields(
        res, "base", cost=res.base.cost,
        coupling=_coupling_rows(res.base.coupling),
        witness=None if res.witness is None else _coupling_rows(res.witness))
    return "Thm 1.4", results, False, None


def _cmd_ot_competitor(args, sp):
    res = solve_w2(sp, _measure(sp, args.mu0), _measure(sp, args.mu1))
    plan = lift_to_geodesic_plan(sp, res.coupling)
    comp = symmetrized_competitor(sp, args.perm, plan, x=args.x,
                                  targets=args.targets)
    rep = verify_competitor(sp, plan, comp)
    results = _fields(rep, ok=rep.ok, cost=res.cost)
    return "Lemma lm:02", results, False, None


def _cmd_mcp_verify(args, sp):
    t_samples = chebyshev_times(args.t_samples)
    if args.plan == "auto":
        if args.A is None:
            raise ValueError("--plan auto needs --A")
        res = solve_w2(sp, delta(sp, args.x), uniform_on(sp, args.A))
        plan = lift_to_geodesic_plan(sp, res.coupling)
    else:
        if args.target_fiber is None or args.target_count is None:
            raise ValueError("--plan schedule needs --target-fiber and"
                             " --target-count")
        plan = necklace_schedule(sp, args.x, args.target_fiber,
                                 args.target_count).plan
    rep = mcp_check(sp, plan, t_samples=t_samples, allowance=args.allowance)
    table = (["t", "cell", "lhs", "rhs", "slack"], rep.rows)
    return "Def. def:MCP", _fields(rep), False, table


def _cmd_mcp_schedule(args, sp):
    sched = necklace_schedule(sp, args.source, args.target_fiber,
                              args.target_count)
    dens = schedule_density_check(sp, sched, allowance=args.allowance)
    results = _fields(sched, "plan", "source", "target_cells", "spread_cells",
                      "fiber_count_spread", "fiber_count_target",
                      ok=dens.all_ok, density=_fields(dens))
    table = (["t", "support_mass", "lhs", "rhs", "slack"], dens.rows)
    return "Lemma lm:mcp", results, False, table


def _cmd_mcp_scalar_bound(args, _):
    rep = scalar_bound(t_max=args.t_max, d_max=args.d_max,
                       samples=args.samples, cushion=args.cushion)
    return "Lemma 5.3", _fields(rep), False, None


def _cmd_iso_enum(args, sp):
    res = enumerate_isometries(sp, iso_tol=args.iso_tol, budget=args.budget)
    results = _fields(res, count=len(res.maps), maps=[
        _fields(m, measure_preserving=m.is_measure_preserving())
        for m in res.maps])
    table = (["iso", "distortion", "measure_defect"],
             [[i, m.distortion, m.measure_defect]
              for i, m in enumerate(res.maps)])
    return "§2.1", results, not res.complete, table


def _cmd_iso_fix(args, sp):
    # bad ids fail before the search
    balls = [(cell_id(sp, c), r) for c, r in args.ball or []]
    if args.perm is not None:
        perms, complete = [args.perm], True
    else:
        res = enumerate_isometries(sp, iso_tol=args.iso_tol)
        perms, complete = res.perms(), res.complete
    sets = [fixed_set(sp, perm, fix_tol=args.fix_tol, balls=balls)
            for perm in perms]
    results = {"complete": complete, "balls": balls, "maps": [
        _fields(fs, "indices", perm=perm, cells=len(fs.indices))
        for perm, fs in zip(perms, sets)]}
    header = ["iso", "mass"] + [f"ball{i}" for i in range(len(balls))]
    rows = [[i, fs.mass, *fs.ball_masses] for i, fs in enumerate(sets)]
    return "Thm 1.1", results, not complete, (header, rows)


def _cmd_iso_displacement(args, sp):
    if args.perm:
        group, complete = args.perm, True
    else:
        res = enumerate_isometries(sp, iso_tol=args.iso_tol)
        group, complete = res.perms(), res.complete
    value = displacement(sp, group, args.r, args.x)
    results = {
        "displacement": value,
        "r": args.r,
        "x": args.x,
        "elements": len(group),
        "r_over_20": args.r / 20.0,
    }
    return "§3", results, not complete, None


def _cmd_iso_condition_a(args, sp):
    res = enumerate_isometries(sp, iso_tol=args.iso_tol)
    rep = condition_a_scan(sp, args.x, args.s, fix_tol=args.fix_tol, maps=res)
    return "Thm 1.1", _fields(rep), not rep.complete, None


def _cmd_iso_probe(args, sp):
    for i in args.compact or ():        # bad ids fail before the search
        cell_id(sp, i)
    maps = enumerate_isometries(sp, iso_tol=args.iso_tol)
    res = small_subgroup_probe(sp, args.eps, compact=args.compact, maps=maps)
    sub = res.subgroup
    results = _fields(res, subgroup=None if sub is None else
                      _fields(sub, "generators", "closed", order=len(sub)))
    return "Prop 3.1", results, res.inconclusive, None


def _random_small_motion(k, seed, scale):
    # the motion's k x k draw comes before euclidean_power_escape checks k
    if not 1 <= k <= MAX_MOTION_DIM:
        raise ValueError(f"k must be between 1 and {MAX_MOTION_DIM}, got {k}")
    if not math.isfinite(scale):
        raise ValueError(f"scale must be finite, got {scale}")
    require_seed(seed)
    from scipy.linalg import expm
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((k, k))
    with np.errstate(over="ignore", invalid="ignore"):   # checked right below
        q = expm(scale * (a - a.T))
        v = scale * rng.standard_normal(k)
    if not (np.isfinite(q).all() and np.isfinite(v).all()):
        raise ValueError(f"scale must keep the drawn motion finite, got {scale}")
    return EuclideanIsometry(q=q, v=v)


def _cmd_iso_escape(args, _):
    if args.random:
        iso = _random_small_motion(args.k, args.seed, args.scale)
    else:
        if args.q is None or args.v is None:
            raise ValueError("need --q and --v, or --random with --k")
        iso = EuclideanIsometry(q=np.asarray(args.q, dtype=float),
                                v=np.asarray(args.v, dtype=float))
    res = euclidean_power_escape(iso, threshold=args.threshold,
                                 max_pow=args.max_pow)
    results = _fields(res, k=iso.k)
    return "Prop 3.1", results, not res.found, None


def _cmd_iso_critical_scale(args, sp):
    res = enumerate_isometries(sp, iso_tol=args.iso_tol)
    cs = critical_scale(sp, res.perms(), args.x, args.lo, args.hi,
                        tol=args.tol)
    results = _fields(cs, elements=len(res.maps))
    return "Prop 3.1", results, not res.complete, None


def _cmd_gh_exact(args, sp):
    y = load_space(args.space2)
    value, witness = gh_exact(sp, y, size_limit=args.size_limit)
    results = _fields(witness, value=value, lower_bound=gh_lower_bound(sp, y))
    return "§2.1", results, False, None


def _cmd_gh_scan(args, sp):
    rep = epsilon_regular_scan(sp, args.x, eps=args.eps, delta=args.delta,
                               k_set=args.k, r_samples=args.r_samples,
                               subsample=args.subsample)
    results = _fields(rep, "x", "epsilon", "delta", "r_values", rows=[
        _fields(row, "rho_x", "rho_e") for row in rep.rows])
    inconclusive = any(v == "inconclusive" for v in rep.verdicts.values())
    table = (["k", "r", "estimate", "ratio", "err_verdict", "err_sound",
              "verdict"],
             [[r.k, r.r, r.estimate, r.ratio, r.err_verdict, r.err_sound,
               r.verdict] for r in rep.rows])
    return "§2.1", results, inconclusive, table


def _cmd_gh_regular_mass(args, sp):
    rep = regular_set_measure(sp, eps=args.eps, delta=args.delta,
                              k_set=args.k, budget=args.budget,
                              r_samples=args.r_samples,
                              subsample=args.subsample)
    results = _fields(
        rep, "scanned", scanned_cells=len(rep.scanned),
        per_k={k: _fields(ms) for k, ms in rep.per_k.items()},
        overall=_fields(rep.overall))
    inconclusive = rep.overall.inconclusive_mass > 0.0
    return "§2.1", results, inconclusive, None


# === parser construction ===

@functools.cache  # one tree per process; parse_args keeps no state
def _build_parser():
    common = _Parser(add_help=False)
    common.add_argument("--report", metavar="FILE",
                        help="report path (default stdout)")
    common.add_argument("--csv", action="store_true",
                        help="emit the tabular section as CSV")
    common.add_argument("--strict", action="store_true",
                        help="exit 2 on inconclusive verdicts")

    top = _Parser(prog="mms-lab",
                  description="finite metric measure space laboratory")
    groups = top.add_subparsers(dest="group", required=True,
                                metavar="{space,ot,mcp,iso,gh}")

    # the verbs that read a space file; the others take common alone
    spaced = _Parser(add_help=False, parents=[common])
    spaced.add_argument("--space", required=True)
    # the verbs that enumerate isometries of that space
    searched = _Parser(add_help=False, parents=[spaced])
    searched.add_argument("--iso-tol", type=float, default=DEFAULT_ISO_TOL)
    # the verbs that scan cells of that space for regular points
    scanned = _Parser(add_help=False, parents=[spaced])
    scanned.add_argument("--eps", required=True, type=float)
    scanned.add_argument("--delta", required=True, type=float)
    scanned.add_argument("--k", type=_k_set, default=(1, 2, 3))
    scanned.add_argument("--r-samples", type=int, default=12)
    scanned.add_argument("--subsample", type=int, default=8)

    def leaf(sub, name, handler, parent=spaced, **kwargs):
        p = sub.add_parser(name, parents=[parent], **kwargs)
        p.set_defaults(handler=handler)
        return p

    # space
    space = groups.add_parser("space").add_subparsers(dest="verb",
                                                      required=True)
    p = leaf(space, "gen", _cmd_space_gen, common,
             help="write a generated space to a JSON file")
    p.add_argument("--kind", required=True, choices=GENERATORS)
    p.add_argument("--params", required=True, type=json.loads,
                   help='generator parameters, e.g. {"resolution": 0.01}')
    p.add_argument("--out", required=True)
    p.add_argument("--dist-mode", default="explicit", choices=DIST_MODES)
    p = leaf(space, "validate", _cmd_space_validate,
             help="check the metric axioms of a space file")
    p.add_argument("--seed", type=int, default=0)

    # ot
    ot = groups.add_parser("ot").add_subparsers(dest="verb", required=True)
    for name, handler in (("solve", _cmd_ot_solve),
                          ("probe", _cmd_ot_probe),
                          ("competitor", _cmd_ot_competitor)):
        p = leaf(ot, name, handler)
        p.add_argument("--mu0", required=True, type=json.loads)
        p.add_argument("--mu1", required=True, type=json.loads)
        if name == "probe":
            p.add_argument("--tol", type=float, default=1e-8)
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--draws", type=int, default=3)
        if name == "competitor":
            p.add_argument("--perm", required=True, type=json.loads)
            p.add_argument("--x", type=int)
            p.add_argument("--targets", type=_ids)

    # mcp
    mcp = groups.add_parser("mcp").add_subparsers(dest="verb", required=True)
    p = leaf(mcp, "verify", _cmd_mcp_verify,
             help="cell-by-cell contraction inequality for one plan")
    p.add_argument("--x", required=True, type=int)
    p.add_argument("--A", type=_ids)
    p.add_argument("--plan", default="auto", choices=["auto", "schedule"])
    p.add_argument("--target-fiber", type=int)
    p.add_argument("--target-count", type=int)
    p.add_argument("--t-samples", type=int, default=33)
    p.add_argument("--allowance", type=float)
    p = leaf(mcp, "schedule", _cmd_mcp_schedule,
             help="bead-chain spreading plan with its density profile")
    p.add_argument("--source", required=True, type=int)
    p.add_argument("--target-fiber", required=True, type=int)
    p.add_argument("--target-count", required=True, type=int)
    p.add_argument("--allowance", type=float)
    p = leaf(mcp, "scalar-bound", _cmd_mcp_scalar_bound, common,
             help="grid check of the scalar contraction estimate")
    p.add_argument("--t-max", type=float, default=0.2)
    p.add_argument("--d-max", type=float, default=math.pi / 2.0 + 0.25)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--cushion", type=float, default=1e-12)

    # iso
    iso = groups.add_parser("iso").add_subparsers(dest="verb", required=True)
    p = leaf(iso, "enum", _cmd_iso_enum, searched,
             help="enumerate distance-preserving cell permutations")
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    p = leaf(iso, "fix", _cmd_iso_fix, searched,
             help="fixed sets of one or all isometries")
    p.add_argument("--perm", type=json.loads)
    p.add_argument("--fix-tol", type=float)
    p.add_argument("--ball", action="append", type=_ball_spec,
                   metavar="CENTER:RADIUS")
    p = leaf(iso, "displacement", _cmd_iso_displacement, searched,
             help="largest move on the half-radius ball")
    p.add_argument("--x", required=True, type=int)
    p.add_argument("--r", required=True, type=float)
    p.add_argument("--perm", action="append", type=json.loads)
    p = leaf(iso, "condition-a", _cmd_iso_condition_a, searched,
             help="fixed mass of nontrivial isometries against ball mass")
    p.add_argument("--x", required=True, type=int)
    p.add_argument("--s", required=True, type=float)
    p.add_argument("--fix-tol", type=float)
    p = leaf(iso, "probe", _cmd_iso_probe, searched,
             help="search for a nontrivial small-displacement subgroup")
    p.add_argument("--eps", required=True, type=float)
    p.add_argument("--compact", type=_ids)
    p = leaf(iso, "escape", _cmd_iso_escape, common,
             help="first power of a rigid motion past the threshold")
    p.add_argument("--q", type=json.loads, help="orthogonal matrix, JSON")
    p.add_argument("--v", type=json.loads, help="translation vector, JSON")
    p.add_argument("--random", action="store_true",
                   help="sample a small random motion instead of --q/--v")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=1e-3)
    p.add_argument("--threshold", type=float, default=0.05)
    p.add_argument("--max-pow", type=int, default=1_000_000)
    p = leaf(iso, "critical-scale", _cmd_iso_critical_scale, searched,
             help="radius where the displacement crosses r/20")
    p.add_argument("--x", required=True, type=int)
    p.add_argument("--lo", required=True, type=float)
    p.add_argument("--hi", required=True, type=float)
    p.add_argument("--tol", type=float, default=1e-6)

    # gh
    gh = groups.add_parser("gh").add_subparsers(dest="verb", required=True)
    p = leaf(gh, "exact", _cmd_gh_exact,
             help="exact distance between two small spaces")
    p.add_argument("--space2", required=True)
    p.add_argument("--size-limit", type=int, default=8)
    p = leaf(gh, "scan", _cmd_gh_scan, scanned,
             help="regular-point verdict for one cell")
    p.add_argument("--x", required=True, type=int)
    p = leaf(gh, "regular-mass", _cmd_gh_regular_mass, scanned,
             help="mass split of a budgeted cell scan")
    p.add_argument("--budget", type=int, default=64)

    return top


# === driver ===

def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)

    command = f"{args.group} {args.verb}"
    try:
        sp = load_space(args.space) if hasattr(args, "space") else None
        if getattr(args, "x", None) is not None:
            cell_id(sp, args.x)         # a bad id fails before any work
        anchor, results, inconclusive, table = args.handler(args, sp)
    except Exception as exc:
        sys.stderr.write(f"mms-lab: {type(exc).__name__}: {exc}\n")
        doc = {"command": command,
               "error": {"type": type(exc).__name__, "message": str(exc)}}
        code, table = 1, None
    else:
        doc = {
            "command": command,
            "inputs": {k: v for k, v in vars(args).items()
                       if k != "handler"},
            "paper_anchor": anchor,
            "results": results,
            "versions": {
                "mmslab": __version__,
                "numpy": np.__version__,
                "python": platform.python_version(),
                "scipy": scipy.__version__,
            },
        }
        code = 2 if inconclusive and args.strict else 0

    try:
        if args.csv and table is not None:
            _emit_csv(table[0], table[1], args.report)
        else:
            _emit_json(doc, args.report)
    except OSError as exc:
        sys.stderr.write(f"mms-lab: cannot write report {args.report}: {exc}\n")
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
