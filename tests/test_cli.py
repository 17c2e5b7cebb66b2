import argparse
import importlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from mmslab import (
    FiniteMMS,
    ball,
    circle_space,
    condition_a_scan,
    displacement,
    enumerate_isometries,
    euclidean_ball_grid,
    hawaiian_truncation,
    load_space,
    save_space,
    segment_space,
)
from mmslab import cli
from mmslab.cli import main
from mmslab.generators import NecklaceParams, necklace, necklace_fibers
from mmslab.regularity import MAX_R_SAMPLES
from mmslab.symmetry import (DEFAULT_ISO_TOL, DEFAULT_NODE_BUDGET,
                             MAX_MOTION_DIM)
from mmslab.transport import MAX_PROBE_DRAWS

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "src" / "mmslab" / "schemas"
     / "report.schema.json").read_text())

ENVELOPE_KEYS = {"command", "inputs", "paper_anchor", "results", "versions"}


def run(capsys, *argv):
    rc = main([str(a) for a in argv])
    return rc, capsys.readouterr()


def run_json(capsys, *argv):
    rc, cap = run(capsys, *argv)
    doc = json.loads(cap.out)
    jsonschema.validate(doc, SCHEMA)
    return rc, doc


def two_point_file(tmp_path, diam, name):
    sp = FiniteMMS(dist=np.array([[0.0, diam], [diam, 0.0]]),
                   weight=np.ones(2), meta={"pitch": diam})
    path = tmp_path / name
    save_space(sp, str(path))
    return path


def circle_file(tmp_path, capsys, resolution=16):
    path = tmp_path / "circle.json"
    rc, _ = run_json(capsys, "space", "gen", "--kind", "circle", "--params",
                     json.dumps({"radius": 1.0, "resolution": resolution}),
                     "--out", path)
    assert rc == 0
    return path


def circle_reflection(space, k):
    """Reflection of circle k of a wedge space about the base axis."""
    m = space.meta["cells_per_circle"]
    first = 1 + k * (m - 1)         # circle k holds m - 1 cells from here
    perm = np.arange(space.n)
    perm[first:first + m - 1] = perm[first + m - 2:first - 1:-1]
    return perm


# === spaces ===

def test_space_gen_writes_a_loadable_space(tmp_path, capsys):
    path = circle_file(tmp_path, capsys)
    rc, doc = run_json(capsys, "space", "validate", "--space", path)
    assert rc == 0
    sp = load_space(str(path))
    assert sp.n == 16
    assert sp.meta["pitch"] == pytest.approx(2 * math.pi / 16)
    assert doc["results"]["ok"]
    assert doc["results"]["certificate"] == "exhaustive"
    assert set(doc) == ENVELOPE_KEYS


def _cloud(n):
    pts = np.random.default_rng(7).random((n, 2))
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    return FiniteMMS(dist=dist, weight=np.ones(n))


@pytest.mark.parametrize("make, certificate, code", [
    (lambda: segment_space(math.pi / 2 / 393), "graph", 0),
    (lambda: necklace(NecklaceParams(beads=((0.4, 0.3), (1.1, 0.3)),
                                     resolution=math.pi / 2 / 315)), "graph", 0),
    (lambda: _cloud(320), "sample", 2),
    (lambda: euclidean_ball_grid(2, 1.0, 0.1), "sample", 2),
])
def test_space_validate_strict_flags_only_a_sampled_ok(tmp_path, capsys, make,
                                                       certificate, code):
    # above 300 cells the graph witness certifies segments and necklaces;
    # clouds and ball grids fall back to the sample, which is inconclusive
    space = make()
    assert space.n > 300
    path = tmp_path / "space.json"
    save_space(space, str(path))
    rc, doc = run_json(capsys, "space", "validate", "--space", path, "--strict")
    assert rc == code
    assert doc["results"]["ok"] is True
    assert doc["results"]["certificate"] == certificate
    bound = doc["results"]["triangle_defect_bound"]
    assert bound == "inf" if certificate == "sample" else bound <= 1e-9


@pytest.mark.parametrize("argv", [
    ["space", "validate", "circle"],
    ["space", "validate", "ball-grid"],
    ["ot", "probe", "circle"],
    ["ot", "probe", "ball-grid"],
    ["iso", "escape", "--random"]])
def test_a_negative_seed_fails_up_front_and_names_it(tmp_path, capsys, argv):
    # validate and probe exited 0 where the seed goes unused, and failed
    # on a sampled space or a random motion with an anonymous numpy error
    if argv[0] != "iso":
        space = (circle_space(1.0, 12) if argv[2] == "circle"
                 else euclidean_ball_grid(2, 1.0, 0.1))
        path = tmp_path / "space.json"
        save_space(space, str(path))
        argv = [*argv[:2], "--space", path]
        if argv[0] == "ot":
            argv += ["--mu0", '{"point": 0}', "--mu1", '{"uniform": [1, 2]}']
    error = run_error(capsys, *argv, "--seed", "-1")
    assert error == {"type": "ValueError",
                     "message": "seed must be a nonnegative integer, got -1"}


def test_space_validate_has_no_tol_option(tmp_path, capsys):
    # the listed violations now use the threshold of ok, so --tol, which
    # only filtered that list, is gone
    path = circle_file(tmp_path, capsys, resolution=8)
    rc, cap = run(capsys, "space", "validate", "--space", path,
                  "--tol", "1e-6")
    assert rc == 1
    assert "unrecognized arguments: --tol" in cap.err
    assert cap.out == ""


def test_space_gen_rejects_unknown_kind(tmp_path, capsys):
    rc, cap = run(capsys, "space", "gen", "--kind", "torus", "--params", "{}",
                  "--out", tmp_path / "t.json")
    assert rc == 1
    assert "usage" in cap.err


GEN_PARAMS = {
    "segment": {"resolution": 0.05},
    "circle": {"radius": 1, "resolution": 24},
    "earring": {"n": 3, "resolution": 12},
    "necklace": {"beads": [[0.8, 0.3]], "resolution": math.pi / 2 / 300},
    "ball": {"k": 2, "r": 0.4, "resolution": 0.1},
}


@pytest.mark.parametrize("kind", sorted(GEN_PARAMS))
def test_space_gen_recipe_mode_round_trips(tmp_path, capsys, kind):
    explicit, recipe = tmp_path / "explicit.json", tmp_path / "recipe.json"
    for path, mode in ((explicit, "explicit"), (recipe, "recipe")):
        rc, doc = run_json(capsys, "space", "gen", "--kind", kind,
                           "--params", json.dumps(GEN_PARAMS[kind]),
                           "--out", path, "--dist-mode", mode)
        assert rc == 0
        assert doc["inputs"]["dist_mode"] == mode
    want, got = load_space(str(explicit)), load_space(str(recipe))
    assert got.n == doc["results"]["cells"]
    assert np.array_equal(got.dist, want.dist)
    assert np.array_equal(got.weight, want.weight)
    assert (got.coords is None and want.coords is None) or np.array_equal(
        got.coords, want.coords)
    assert json.dumps(got.meta, sort_keys=True) == json.dumps(
        want.meta, sort_keys=True)


def test_space_gen_rejects_a_computed_dist_mode(tmp_path, capsys):
    rc, cap = run(capsys, "space", "gen", "--kind", "segment", "--params",
                  '{"resolution": 0.1}', "--out", tmp_path / "s.json",
                  "--dist-mode", "graph")
    assert rc == 1
    assert "usage" in cap.err
    assert not (tmp_path / "s.json").exists()


def run_cold(*argv):
    """Run a verb in a fresh child process; it prints which of scipy's
    sparse, optimize and linalg packages the run loaded."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")]))
    code = ("import sys; from mmslab.cli import main; rc = main(sys.argv[1:]); "
            "print([m for m in ('scipy.sparse', 'scipy.optimize', "
            "'scipy.linalg') if m in sys.modules]); sys.exit(rc)")
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_space_gen_loads_no_scipy_solver_module(tmp_path):
    # importing scipy's sparse, optimize and linalg packages at module
    # load took most of a second of every CLI call; a child process
    # starts with none of them loaded
    child = run_cold("space", "gen", "--kind", "necklace",
                     "--params", json.dumps(GEN_PARAMS["necklace"]),
                     "--out", str(tmp_path / "n.json"),
                     "--report", str(tmp_path / "n.report"))
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[]\n"
    assert load_space(str(tmp_path / "n.json")).n == 351


def test_space_validate_reads_a_file_without_scipy_solver_modules(tmp_path):
    path = tmp_path / "n.json"
    save_space(necklace(NecklaceParams(**GEN_PARAMS["necklace"])), str(path))
    child = run_cold("space", "validate", "--space", str(path),
                     "--report", str(tmp_path / "n.report"))
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[]\n"
    assert json.loads((tmp_path / "n.report").read_text())["results"]["ok"]


# === transport ===

def test_ot_solve_forced_two_point_instance(tmp_path, capsys):
    path = two_point_file(tmp_path, 1.0, "pair.json")
    mu1 = {"atoms": [{"point": 0, "mass": 0.5}, {"point": 1, "mass": 0.5}]}
    rc, doc = run_json(capsys, "ot", "solve", "--space", path,
                       "--mu0", '{"point": 0}', "--mu1", json.dumps(mu1))
    assert rc == 0
    assert doc["results"]["cost"] == pytest.approx(0.5, abs=1e-12)
    assert doc["paper_anchor"] == "Eq. eq:w-d"


def test_ot_probe_forced_instance_is_unique(tmp_path, capsys):
    path = two_point_file(tmp_path, 1.0, "pair.json")
    rc, doc = run_json(capsys, "ot", "probe", "--space", path,
                       "--mu0", '{"point": 0}', "--mu1", '{"uniform": [0, 1]}')
    assert rc == 0
    assert doc["results"]["unique"] is True
    assert doc["results"]["witness"] is None


def segment_16_file(tmp_path, capsys):
    path = tmp_path / "seg16.json"
    rc, doc = run_json(capsys, "space", "gen", "--kind", "segment",
                       "--params", '{"resolution": 0.1}', "--out", path)
    assert rc == 0 and doc["results"]["cells"] == 16
    return path


UNIQUE_SEGMENT_PAIR = ("--mu0", '{"uniform": [0, 1]}',
                       "--mu1", '{"uniform": [3, 4]}')


def test_ot_probe_certifies_a_unique_segment_plan_by_a_forest(tmp_path,
                                                             capsys):
    path = segment_16_file(tmp_path, capsys)
    rc, doc = run_json(capsys, "ot", "probe", "--space", path,
                       *UNIQUE_SEGMENT_PAIR)
    assert rc == 0
    assert doc["results"]["unique"] is True
    assert doc["results"]["certificate"] == "forest"
    assert doc["results"]["witness"] is None


@pytest.mark.parametrize("option, value", [
    ("--tol", "-1"), ("--tol", "nan"), ("--draws", "0")])
def test_ot_probe_rejects_bad_search_options(tmp_path, capsys, option, value):
    path = segment_16_file(tmp_path, capsys)
    error = run_error(capsys, "ot", "probe", "--space", path,
                      *UNIQUE_SEGMENT_PAIR, option, value)
    assert error["type"] == "ValueError"
    assert option[2:] in error["message"]


@pytest.mark.parametrize("measure, message", [
    ('{"atoms": [{"point": 3, "mass": NaN}]}', "finite"),
    ('{"atoms": [{"point": 3, "mass": Infinity}]}', "finite"),
    ('{"atoms": [{"point": 3, "mass": 1e308}, {"point": 4, "mass": 1e308}]}',
     "finite"),
    ('{"uniform": []}', "at least one cell"),
    ('{"atoms": [{"point": 3, "mass": true}]}', "mass True is not a real"),
    ('{"atoms": [{"point": 3, "mass": "1"}]}', "mass '1' is not a real"),
    ('{"atoms": [[3, 1]]}', "measure must be "),
    ('{"atoms": [{"point": 3}]}', "measure must be "),
    ('{"atoms": 5}', "measure must be "),
    ('{"uniform": 5}', "measure must be ")],
    ids=["nan-mass", "inf-mass", "overflowing-sum", "empty-uniform",
         "bool-mass", "string-mass", "atom-list", "atom-without-mass",
         "atoms-number", "uniform-number"])
def test_measures_without_a_finite_mass_emit_error_objects(tmp_path, capsys,
                                                           measure, message):
    # these used to end in "attempt to get argmax of an empty sequence",
    # for a bool or a string in a plan for a mass of 1, and for a document
    # of the wrong shape in a TypeError or KeyError naming no form
    path = segment_16_file(tmp_path, capsys)
    error = run_error(capsys, "ot", "solve", "--space", path,
                      "--mu0", '{"point": 0}', "--mu1", measure)
    assert error["type"] == "ValueError"
    assert message in error["message"]


@pytest.mark.parametrize("value", ["nan", "-1"])
def test_iso_tol_nan_or_negative_emits_error_object(tmp_path, capsys, value):
    # both used to report a complete enumeration with no maps
    path = circle_file(tmp_path, capsys, resolution=8)
    error = run_error(capsys, "iso", "enum", "--space", path,
                      f"--iso-tol={value}")
    assert error["type"] == "ValueError"
    assert "iso_tol" in error["message"]


def test_space_gen_past_the_float_range_emits_error_object(tmp_path, capsys):
    # the circumference overflows, and the space used to be written with
    # a NaN diameter and an empty isometry group
    out = tmp_path / "c.json"
    error = run_error(capsys, "space", "gen", "--kind", "circle", "--params",
                      '{"radius": 1e308, "resolution": 8}', "--out", out)
    assert error == {"type": "ValueError", "message": "dist must be finite"}
    assert not out.exists()


@pytest.mark.parametrize("kind, params, name", [
    ("circle", {"radius": 1, "resolution": 1e308}, "resolution"),
    ("segment", {"resolution": 5e-324}, "resolution"),
    ("ball", {"k": 2, "r": 1e308, "resolution": 1e308}, "resolution"),
    ("earring", {"n": 1e308, "resolution": 64}, "n"),
    ("earring", {"n": 2, "resolution": 1e9}, "resolution"),
    ("earring", {"n": 300, "resolution": 64}, "n"),
    ("necklace", {"beads": [[0.8, 0.3]], "resolution": 1e-5}, "resolution"),
    ("necklace", {"beads": [[0.8, 0.3]], "resolution": 1.2e-4},
     "resolution"),
    ("ball", {"k": 1, "r": 1e308, "resolution": 1}, "r/resolution"),
    ("ball", {"k": 3, "r": 1, "resolution": 0.05}, "r/resolution"),
    ("earring", {"n": 2.5, "resolution": 64}, "n"),
    ("earring", {"n": 2, "resolution": 24.5}, "resolution"),
    ("circle", {"radius": 1, "resolution": 12.7}, "resolution"),
    ("circle", {"radius": 1.0, "resolution": "12"}, "resolution"),
    ("circle", {"radius": None, "resolution": 12}, "radius"),
    ("earring", {"n": "3", "resolution": 8}, "n"),
    ("earring", {"n": 3, "resolution": True}, "resolution"),
    ("segment", {"resolution": "0.1"}, "resolution"),
    ("ball", {"k": 2, "r": "1", "resolution": 0.25}, "r"),
    ("necklace", {"beads": [], "resolution": "0.01"}, "resolution"),
    ("necklace", {"beads": [[None, 0.4]], "resolution": 0.01}, "beads"),
    ("necklace", {"beads": [0.8], "resolution": 0.01}, "beads"),
    ("necklace", {"beads": [["0.8", 0.3]], "resolution": 0.01}, "beads"),
    ("necklace", {"beads": ["11"], "resolution": 0.01}, "beads"),
    ("necklace", {"beads": [[0.8, 0.3, 1]], "resolution": 0.01}, "beads"),
    ("necklace", {"beads": 0.8, "resolution": 0.01}, "beads")])
def test_oversized_space_gen_fails_before_it_allocates(tmp_path, capsys,
                                                       kind, params, name):
    # each of these used to end in a numpy or Python error that named no
    # parameter, or to ask for gigabytes; 1.2e-4 gives fewer fibers than
    # the cap but more cells.  A count that is not a whole number fails
    # too: the earring's n = 2.5 ended in a TypeError from range, and the
    # circle built 12 cells for 12.7.  So does a parameter that is not a
    # number, which ended in a TypeError from a comparison, and so does a
    # bead that is not a pair of numbers, which ended in a TypeError from
    # float() or unpacking, or was read digit by digit ("11").  The parser
    # is built before the peak is taken, since it is cached for the
    # process.
    cli._build_parser()
    out = tmp_path / "big.json"
    tracemalloc.start()
    try:
        error = run_error(capsys, "space", "gen", "--kind", kind, "--params",
                          json.dumps(params), "--out", out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert error["type"] == "ValueError"
    assert error["message"].startswith(name + " ")
    assert peak < 10e6
    assert not out.exists()


# the reversal of the 16-cell segment, with point masses at both ends
SEGMENT_REVERSAL = ("--mu0", '{"point": 0}', "--mu1", '{"point": 15}',
                    "--perm", json.dumps(list(range(15, -1, -1))))


@pytest.mark.parametrize("bad, argv", [
    (-1, ["ot", "probe", "--mu0", '{"point": -1}', "--mu1", '{"point": 3}']),
    (16, ["ot", "solve", "--mu0", '{"point": 0}',
          "--mu1", '{"uniform": [3, 16]}']),
    (-1, ["mcp", "verify", "--x", "-1", "--A", "3,4"]),
    (-1, ["gh", "scan", "--x", "-1", "--eps", "0.1", "--delta", "0.5",
          "--k", "1", "--r-samples", "2", "--subsample", "4"]),
    (-1, ["iso", "displacement", "--x", "-1", "--r", "1.0"]),
    (-1, ["iso", "condition-a", "--x", "-1", "--s", "1.0"]),
    (12, ["iso", "condition-a", "--x", "12", "--s", "1.0"]),
    (-1, ["iso", "probe", "--eps", "0.1", "--compact", "-1"]),
    (12, ["iso", "probe", "--eps", "0.1", "--compact", "3,12"]),
    (-1, ["ot", "competitor", *SEGMENT_REVERSAL, "--x", "-1"]),
    (16, ["ot", "competitor", *SEGMENT_REVERSAL, "--x", "16"]),
    (-3, ["ot", "competitor", *SEGMENT_REVERSAL, "--targets", "5,-3"]),
    (900, ["ot", "competitor", *SEGMENT_REVERSAL, "--targets", "5,900"])])
def test_cell_ids_outside_the_space_emit_error_objects(tmp_path, capsys, bad,
                                                       argv):
    # the iso verbs run on a 12-cell circle, the others on the 16-cell
    # segment; a wrapped id once gave a result or an IndexError
    if argv[0] == "iso":
        cells, path = 12, circle_file(tmp_path, capsys, resolution=12)
    else:
        cells, path = 16, segment_16_file(tmp_path, capsys)
    error = run_error(capsys, *argv[:2], "--space", path, *argv[2:])
    assert error == {"type": "ValueError",
                     "message": f"cell id {bad} outside [0, {cells})"}


def test_an_empty_compact_set_emits_an_error_object(tmp_path, capsys):
    path = circle_file(tmp_path, capsys, resolution=12)
    error = run_error(capsys, "iso", "probe", "--space", path, "--eps", "0.1",
                      "--compact", "")
    assert error == {"type": "ValueError",
                     "message": "compact must hold at least one cell"}


@pytest.mark.parametrize("bad, argv", [
    ("1.9", ["ot", "solve", "--mu0", '{"point": 1.9}',
             "--mu1", '{"point": 3}']),
    ("True", ["ot", "solve", "--mu0", '{"point": true}',
              "--mu1", '{"point": 3}']),
    ("'3'", ["ot", "solve", "--mu0", '{"point": 0}',
             "--mu1", '{"uniform": ["3"]}']),
    ("4.5", ["ot", "probe", "--mu0", '{"point": 0}',
             "--mu1", '{"atoms": [{"point": 4.5, "mass": 1}]}']),
    ("3.9", ["mcp", "verify", "--x", "0", "--A", "[3.9,4.5]"]),
    ("5.5", ["ot", "competitor", *SEGMENT_REVERSAL, "--targets", "5.5"])])
def test_cell_ids_of_no_whole_number_emit_error_objects(tmp_path, capsys,
                                                         bad, argv):
    # these ran on the truncated ids: cells 1, 1, 3, 4, [3, 4] and 5
    path = segment_16_file(tmp_path, capsys)
    error = run_error(capsys, *argv[:2], "--space", path, *argv[2:])
    assert error == {"type": "ValueError",
                     "message": f"cell id {bad} is not a whole number"}


@pytest.mark.parametrize("argv", [
    ["iso", "fix", "--perm", "[0.9,1.2,2.7,3.1,4.5,5.99]"],
    ["iso", "displacement", "--x", "0", "--r", "1.0",
     "--perm", "[0.9,1.2,2.7,3.1,4.5,5.99]"]])
def test_a_permutation_of_no_whole_numbers_emits_an_error_object(
        tmp_path, capsys, argv):
    # truncated to the identity, it fixed every cell
    path = circle_file(tmp_path, capsys, resolution=6)
    error = run_error(capsys, *argv[:2], "--space", path, *argv[2:])
    assert error == {"type": "ValueError",
                     "message": "not a permutation of the cells"}


def test_an_id_list_that_is_no_json_is_a_usage_error(tmp_path, capsys):
    path = segment_16_file(tmp_path, capsys)
    rc, cap = run(capsys, "mcp", "verify", "--space", path, "--x", "0",
                  "--A", "3,4,")
    assert rc == 1 and "usage" in cap.err and cap.out == ""


@pytest.mark.parametrize("name, argv", [
    ("t_max", ["mcp", "scalar-bound", "--t-max", "nan"]),
    ("t_max", ["mcp", "scalar-bound", "--t-max", "-1", "--d-max", "0"]),
    ("d_max", ["mcp", "scalar-bound", "--d-max", "inf"]),
    ("cushion", ["mcp", "scalar-bound", "--cushion", "-0.5"]),
    ("samples", ["mcp", "scalar-bound", "--samples", "1"]),
    ("samples", ["mcp", "scalar-bound", "--samples", "100000000"]),
    ("count", ["mcp", "verify", "--x", "0", "--A", "3,4",
               "--t-samples", "100000000"]),
    ("max_pow", ["iso", "escape", "--random", "--scale", "1e-12",
                 "--max-pow", "1000000000000"]),
    # these once ended in scipy's "array must not contain infs or NaNs",
    # a NaN verdict with exit 0, and verdicts over no powers
    ("scale", ["iso", "escape", "--random", "--scale", "1e308"]),
    ("t_max", ["mcp", "scalar-bound", "--t-max", "1e308"]),
    ("max_pow", ["iso", "escape", "--q", "[[1,0],[0,1]]", "--v", "[1e-3,0]",
                 "--max-pow", "-3"]),
    ("max_pow", ["iso", "escape", "--q", "[[1,0],[0,1]]", "--v", "[1e-3,0]",
                 "--max-pow", "0"])])
def test_inputs_outside_a_domain_or_ceiling_fail_fast_and_name_it(
        tmp_path, capsys, name, argv):
    if "verify" in argv:
        argv[2:2] = ["--space", str(segment_16_file(tmp_path, capsys))]
    start = time.perf_counter()
    error = run_error(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert error["type"] == "ValueError"
    assert error["message"].startswith(f"{name} must ")


# small, legal scan options; a flag given again later overrides its value
SCAN = ("--eps", "0.1", "--delta", "0.5", "--k", "1", "--r-samples", "2",
        "--subsample", "4")


@pytest.mark.parametrize("name, argv", [
    ("eps", ["gh", "scan", "--x", "3", *SCAN, "--eps", "nan"]),
    ("delta", ["gh", "scan", "--x", "3", *SCAN, "--delta", "nan"]),
    ("subsample", ["gh", "scan", "--x", "3", *SCAN, "--subsample", "0"]),
    ("budget", ["gh", "regular-mass", *SCAN, "--budget", "-1"]),
    ("epsilon", ["iso", "probe", "--eps", "nan"]),
    ("r", ["iso", "displacement", "--x", "0", "--r", "nan"]),
    ("s", ["iso", "condition-a", "--x", "0", "--s", "nan"]),
    ("fix_tol", ["iso", "condition-a", "--x", "0", "--s", "1.0",
                 "--fix-tol", "nan"]),
    ("fix_tol", ["iso", "fix", "--fix-tol", "nan"]),
    ("ball radius", ["iso", "fix", "--ball", "0:nan"]),
    ("hi", ["iso", "critical-scale", "--x", "0", "--lo", "0.1",
            "--hi", "nan"]),
    ("threshold", ["iso", "escape", "--random", "--threshold", "nan"]),
    ("threshold", ["iso", "escape", "--random", "--threshold", "-1"]),
    ("scale", ["iso", "escape", "--random", "--scale", "nan"]),
    ("allowance", ["mcp", "verify", "--x", "0", "--A", "3,4",
                   "--allowance", "nan"]),
    ("r_samples", ["gh", "scan", "--x", "3", *SCAN, "--r-samples", "0"]),
    ("r_samples", ["gh", "regular-mass", *SCAN, "--r-samples", "-3"]),
    ("r_samples", ["gh", "scan", "--x", "3", *SCAN,
                   "--r-samples", "1000000"]),
    ("r_samples", ["gh", "regular-mass", *SCAN,
                   "--r-samples", str(MAX_R_SAMPLES + 1)])])
def test_scalars_outside_their_domain_fail_fast_and_name_it(tmp_path, capsys,
                                                            name, argv):
    # each once gave a verdict with exit 0, ran past 15 s, or raised an
    # error that named nothing; the iso verbs run on a 12-cell circle, gh
    # and mcp on the 16-cell segment
    if argv[1] != "escape":
        path = (circle_file(tmp_path, capsys, resolution=12)
                if argv[0] == "iso" else segment_16_file(tmp_path, capsys))
        argv = [*argv[:2], "--space", str(path), *argv[2:]]
    start = time.perf_counter()
    error = run_error(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert error["type"] == "ValueError"
    assert error["message"].startswith(f"{name} must ")


@pytest.mark.parametrize("name, argv", [
    ("k", ["iso", "escape", "--random", "--k", "1000000"]),
    ("k", ["iso", "escape", "--random", "--k", str(MAX_MOTION_DIM + 1)]),
    ("k", ["iso", "escape", "--q", json.dumps(np.eye(13).tolist()),
           "--v", json.dumps([1e-3] + [0.0] * 12)]),
    ("draws", ["ot", "probe", *UNIQUE_SEGMENT_PAIR, "--draws", "1000000"]),
    ("draws", ["ot", "probe", *UNIQUE_SEGMENT_PAIR,
               "--draws", str(MAX_PROBE_DRAWS + 1)])])
def test_oversized_motions_and_draws_fail_fast_and_name_it(tmp_path, capsys,
                                                           name, argv):
    # a million-dimensional random motion first drew a 10^12-entry matrix
    if argv[0] == "ot":
        argv[2:2] = ["--space", str(segment_16_file(tmp_path, capsys))]
    start = time.perf_counter()
    error = run_error(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert error["type"] == "ValueError"
    assert error["message"].startswith(f"{name} must ")


def test_the_largest_legal_motion_and_draws_run(tmp_path, capsys):
    rc, doc = run_json(capsys, "iso", "escape", "--random",
                       "--k", MAX_MOTION_DIM, "--max-pow", 1000)
    assert rc == 0 and doc["results"]["k"] == MAX_MOTION_DIM
    rc, doc = run_json(capsys, "ot", "probe",
                       "--space", segment_16_file(tmp_path, capsys),
                       *UNIQUE_SEGMENT_PAIR, "--draws", MAX_PROBE_DRAWS)
    assert rc == 0 and doc["inputs"]["draws"] == MAX_PROBE_DRAWS


def test_a_negative_exponent_after_a_flag_is_a_value(capsys):
    # argparse took "-1e-9" for a flag and stopped with "expected one
    # argument"; the library's check now rejects the value itself
    error = run_error(capsys, "mcp", "scalar-bound", "--cushion", "-1e-9")
    assert error == {"type": "ValueError", "message":
                     "cushion must be finite and nonnegative, got -1e-09"}
    rc, doc = run_json(capsys, "mcp", "scalar-bound", "--t-max", "2e-1",
                       "--samples", 64)
    assert rc == 0 and doc["inputs"]["t_max"] == 0.2


def test_every_parser_reads_a_negative_exponent_as_a_value():
    def parsers(parser):
        yield parser
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from parsers(sub)

    seen = 0
    for parser in parsers(cli._build_parser()):
        for text in ("-1e-9", "-2.5E+3", "-.5e1", "-3", "-0.5"):
            assert parser._negative_number_matcher.match(text), parser.prog
        for text in ("-e", "-1e", "--k", "-k"):
            assert not parser._negative_number_matcher.match(text), parser.prog
        seen += 1
    assert seen > len(_parser_verbs())


@pytest.mark.parametrize("verb, extra", [("scan", ["--x", "3"]),
                                         ("regular-mass", []),
                                         ("regular-mass", ["--budget", "0"])])
@pytest.mark.parametrize("k", ["4", "0", "-1", "1,4"])
def test_scan_dimensions_outside_one_to_three_emit_error_objects(
        tmp_path, capsys, verb, extra, k):
    # these ended in a KeyError from the model-ball table that named no
    # input, or with no cell scanned (budget 0) in a report for them
    path = segment_16_file(tmp_path, capsys)
    error = run_error(capsys, "gh", verb, "--space", path, *extra,
                      "--eps", "0.1", "--delta", "0.5", "--k", k,
                      "--r-samples", "2", "--subsample", "4")
    assert error["type"] == "ValueError"
    assert error["message"].startswith("k_set ")
    assert error["message"].endswith(f" got {k.split(',')[-1]}")


@pytest.mark.parametrize("argv", [
    ["iso", "displacement", "--x", "12", "--r", "1.0"],
    ["iso", "critical-scale", "--x", "12", "--lo", "0.1", "--hi", "1.0"],
    ["iso", "condition-a", "--x", "12", "--s", "1.0"],
    ["iso", "probe", "--eps", "0.1", "--compact", "12"],
    ["iso", "fix", "--ball", "12:1.0"]])
def test_cell_ids_are_checked_before_the_search(tmp_path, capsys,
                                                 monkeypatch, argv):
    path = circle_file(tmp_path, capsys, resolution=12)

    def search(*args, **kwargs):
        raise AssertionError("enumerated before checking the cell ids")

    monkeypatch.setattr(cli, "enumerate_isometries", search)
    error = run_error(capsys, *argv[:2], "--space", path, *argv[2:])
    assert error == {"type": "ValueError",
                     "message": "cell id 12 outside [0, 12)"}


def test_ot_competitor_on_a_reflected_earring(tmp_path, capsys):
    sp = hawaiian_truncation(3, 24)
    path = tmp_path / "earring.json"
    save_space(sp, str(path))
    perm = circle_reflection(sp, 0)
    m = sp.meta["cells_per_circle"]
    source = [1 + (m - 1) + j for j in range(3, 7)]
    x = 5
    mu0 = {"uniform": source}
    mu1 = {"atoms": [{"point": x, "mass": 0.5},
                     {"point": int(perm[x]), "mass": 0.5}]}
    rc, doc = run_json(capsys, "ot", "competitor", "--space", path,
                       "--mu0", json.dumps(mu0), "--mu1", json.dumps(mu1),
                       "--perm", json.dumps([int(v) for v in perm]),
                       "--x", x)
    assert rc == 0
    res = doc["results"]
    assert res["ok"] and res["marginals_equal"] and res["cost_equal"]
    assert res["distinct"] and res["plan_difference"] > 0.9


# === contraction ===

def test_mcp_verify_emits_json_and_csv(tmp_path, capsys):
    path = tmp_path / "seg.json"
    rc, _ = run_json(capsys, "space", "gen", "--kind", "segment", "--params",
                     '{"resolution": 0.02}', "--out", path)
    targets = "60,61,62,63"
    rc, doc = run_json(capsys, "mcp", "verify", "--space", path, "--x", 0,
                       "--A", targets, "--t-samples", 9)
    assert rc == 0
    assert doc["results"]["ok"] is True
    # the bound is tight at t = 1, so zero slack is the best possible
    assert doc["results"]["worst_slack"] >= 0

    rc, cap = run(capsys, "mcp", "verify", "--space", path, "--x", 0,
                  "--A", targets, "--t-samples", 9, "--csv")
    assert rc == 0
    lines = cap.out.strip().splitlines()
    assert lines[0] == "t,cell,lhs,rhs,slack"
    t, cell, lhs, rhs, slack = lines[1].split(",")
    assert float(rhs) - float(lhs) == pytest.approx(float(slack), rel=1e-9)
    assert len(lines) == 1 + len(doc["results"]["rows"])


def test_mcp_schedule_reports_landmarks(tmp_path, capsys):
    sp = necklace(NecklaceParams(beads=((0.4, 0.3), (1.1, 0.3)),
                                 resolution=math.pi / 2 / 240))
    path = tmp_path / "neck.json"
    save_space(sp, str(path))
    _, fx, _, fcount, fstart, _ = necklace_fibers(sp)
    src_f = int(np.argmin(np.abs(fx - 0.38)))
    tgt_f = int(np.argmin(np.abs(fx - 1.06)))
    src = int(fstart[src_f] + fcount[src_f] // 2)
    rc, doc = run_json(capsys, "mcp", "schedule", "--space", path,
                       "--source", src, "--target-fiber", tgt_f,
                       "--target-count", 2)
    assert rc == 0
    res = doc["results"]
    assert res["ok"] and res["density"]["ok"] and res["density"]["heights_ok"]
    assert res["t_spread"] <= 0.3 / 5 + 1e-9
    assert res["x_source"] < res["x_spread"] < res["x_target"]


def test_mcp_schedule_on_a_necklace_ball_emits_error_object(tmp_path,
                                                            capsys):
    # a ball keeps no necklace recipe, so it has no fiber layout; a ball
    # of the first cells used to pass on the stale fiber tables it copied
    sp = necklace(NecklaceParams(beads=((0.4, 0.3), (1.1, 0.3)),
                                 resolution=math.pi / 2 / 240))
    _, fx, _, fcount, fstart, _ = necklace_fibers(sp)
    src_f = int(np.argmin(np.abs(fx - 0.38)))
    tgt_f = int(np.argmin(np.abs(fx - 1.06)))
    src = int(fstart[src_f] + fcount[src_f] // 2)
    path = tmp_path / "ball.json"
    save_space(ball(sp, src, 1.0), str(path))
    error = run_error(capsys, "mcp", "schedule", "--space", path,
                      "--source", src, "--target-fiber", tgt_f,
                      "--target-count", 2)
    assert error["type"] == "ValueError"
    assert "no necklace recipe" in error["message"]


def test_mcp_scalar_bound_margin_positive(capsys):
    rc, doc = run_json(capsys, "mcp", "scalar-bound", "--samples", 300)
    assert rc == 0
    assert doc["results"]["ok"] is True
    assert doc["results"]["min_margin"] > 0


# === isometries ===

def test_iso_enum_counts_the_dihedral_maps(tmp_path, capsys):
    path = circle_file(tmp_path, capsys)
    rc, doc = run_json(capsys, "iso", "enum", "--space", path,
                       "--iso-tol", 1e-9)
    assert rc == 0
    assert doc["results"]["count"] == 32
    assert doc["results"]["complete"] is True
    assert all(m["measure_preserving"] for m in doc["results"]["maps"])

    rc, cap = run(capsys, "iso", "enum", "--space", path, "--iso-tol", 1e-9,
                  "--csv")
    lines = cap.out.strip().splitlines()
    assert lines[0] == "iso,distortion,measure_defect"
    assert len(lines) == 33


def test_iso_fix_lists_per_map_ball_masses(tmp_path, capsys):
    path = circle_file(tmp_path, capsys)
    rc, doc = run_json(capsys, "iso", "fix", "--space", path,
                       "--iso-tol", 1e-9, "--fix-tol", 1e-9,
                       "--ball", "0:1.0")
    assert rc == 0
    masses = [m["mass"] for m in doc["results"]["maps"]]
    # identity fixes everything, rotations and the edge reflections fix
    # nothing, the eight vertex reflections keep two antipodal cells
    assert max(masses) == pytest.approx(2 * math.pi)
    assert masses.count(0.0) == 23
    two_cells = 2 * (2 * math.pi / 16)
    assert sum(abs(m - two_cells) < 1e-12 for m in masses) == 8


def test_iso_displacement_matches_the_library(tmp_path, capsys):
    path = circle_file(tmp_path, capsys)
    rc, doc = run_json(capsys, "iso", "displacement", "--space", path,
                       "--x", 0, "--r", 1.0, "--iso-tol", 1e-9)
    assert rc == 0
    sp = load_space(str(path))
    group = enumerate_isometries(sp, iso_tol=1e-9).perms()
    assert doc["results"]["displacement"] == pytest.approx(
        displacement(sp, group, 1.0, 0), abs=1e-9)
    assert doc["results"]["elements"] == 32


@pytest.mark.parametrize("perm", ["[0,0,0,0,0,0]", "[0,1,2]", "[5,4,3,2,1,9]"])
def test_non_permutations_emit_error_objects(tmp_path, capsys, perm):
    path = circle_file(tmp_path, capsys, resolution=6)
    for argv in (["iso", "fix", "--space", path, "--perm", perm],
                 ["iso", "displacement", "--space", path, "--x", 0,
                  "--r", 1.0, "--perm", "[0,1,2,3,4,5]", "--perm", perm],
                 ["ot", "competitor", "--space", path,
                  "--mu0", '{"point": 0}', "--mu1", '{"point": 1}',
                  "--perm", perm, "--x", 1]):
        error = run_error(capsys, *argv)
        assert error == {"type": "ValueError",
                         "message": "not a permutation of the cells"}


def test_iso_condition_a_holds_on_a_grid_ball(tmp_path, capsys):
    path = tmp_path / "grid.json"
    rc, _ = run_json(capsys, "space", "gen", "--kind", "ball", "--params",
                     json.dumps({"k": 2, "r": 0.5, "resolution": 0.1}),
                     "--out", path)
    rc, doc = run_json(capsys, "iso", "condition-a", "--space", path,
                       "--x", 0, "--s", 0.5, "--iso-tol", 1e-9)
    assert rc == 0
    res = doc["results"]
    assert res["holds"] and res["complete"] and not res["vacuous"]
    sp = load_space(str(path))
    direct = condition_a_scan(sp, 0, 0.5,
                              maps=enumerate_isometries(sp, iso_tol=1e-9))
    assert res["gap"] == pytest.approx(direct.gap, rel=1e-9)


def test_iso_probe_finds_the_smallest_circle_reflection(tmp_path, capsys):
    """On a chain of shrinking circles the reflection of the smallest one
    moves nothing farther than that circle's half circumference, so it
    generates a small subgroup; a lone circle has none, since any
    rotation generates arbitrarily large moves."""
    sp = hawaiian_truncation(3, 12)
    path = tmp_path / "earring.json"
    save_space(sp, str(path))
    rc, doc = run_json(capsys, "iso", "probe", "--space", path,
                       "--eps", 0.4, "--iso-tol", 1e-9)
    assert rc == 0
    res = doc["results"]
    assert res["found"] is True
    assert res["subgroup"]["order"] == 2
    assert res["sup_displacement"] == pytest.approx(math.pi / 9, abs=0.02)

    circle = circle_file(tmp_path, capsys, resolution=24)
    rc, doc = run_json(capsys, "iso", "probe", "--space", circle,
                       "--eps", 0.3, "--iso-tol", 1e-9)
    assert rc == 0
    assert doc["results"]["found"] is False
    assert doc["results"]["inconclusive"] is False


def test_iso_escape_quarter_turn(capsys):
    rc, doc = run_json(capsys, "iso", "escape",
                       "--q", "[[0, -1], [1, 0]]", "--v", "[0, 0]")
    assert rc == 0
    res = doc["results"]
    assert res["found"] and res["n"] == 1
    assert res["displacement"] == pytest.approx(math.sqrt(2) / 2, rel=1e-12)


def test_iso_escape_random_is_seeded(capsys):
    rc1, d1 = run_json(capsys, "iso", "escape", "--random", "--k", 3,
                       "--seed", 11)
    rc2, d2 = run_json(capsys, "iso", "escape", "--random", "--k", 3,
                       "--seed", 11)
    assert rc1 == rc2 == 0
    assert d1["results"] == d2["results"]
    assert d1["results"]["found"] is True
    assert d1["results"]["displacement"] >= 0.05


def test_iso_critical_scale_brackets_the_crossing(tmp_path, capsys):
    sp = hawaiian_truncation(3, 12)
    path = tmp_path / "earring.json"
    save_space(sp, str(path))
    rc, doc = run_json(capsys, "iso", "critical-scale", "--space", path,
                       "--x", 0, "--lo", 0.8, "--hi", 63.0,
                       "--tol", 1e-4, "--iso-tol", 1e-9)
    assert rc == 0
    res = doc["results"]
    assert abs(res["r"] - 20 * math.pi) <= 1e-4
    assert res["bracket"][1] - res["bracket"][0] <= 1e-4


def test_iso_critical_scale_on_an_unlisted_group_emits_error_object(
        tmp_path, capsys):
    # earring(30, 8)'s 2^30 maps are counted, not listed: an empty group
    # used to end in "no crossing inside the bracket"
    path = tmp_path / "earring.json"
    save_space(hawaiian_truncation(30, 8), str(path))
    error = run_error(capsys, "iso", "critical-scale", "--space", path,
                      "--x", 0, "--lo", 0.8, "--hi", 63.0)
    assert error == {"type": "ValueError",
                     "message": "group must hold at least one permutation"}


def test_iso_critical_scale_tol_zero_emits_error_object(tmp_path):
    # a zero tol used to make the bisection spin for ever, so the call
    # runs in a child process that the timeout can stop
    path = tmp_path / "earring.json"
    save_space(hawaiian_truncation(3, 12), str(path))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run(
        [sys.executable, "-m", "mmslab.cli", "iso", "critical-scale",
         "--space", str(path), "--x", "0", "--lo", "0.8", "--hi", "63.0",
         "--tol", "0", "--iso-tol", "1e-9"],
        env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 1
    doc = json.loads(child.stdout)
    jsonschema.validate(doc, SCHEMA)
    assert doc == {"command": "iso critical-scale",
                   "error": {"type": "ValueError",
                             "message": "tol must be positive, got 0.0"}}


# === distance verbs ===

def test_gh_exact_between_two_point_files(tmp_path, capsys):
    a = two_point_file(tmp_path, 1.0, "a.json")
    b = two_point_file(tmp_path, 1.6, "b.json")
    rc, doc = run_json(capsys, "gh", "exact", "--space", a, "--space2", b)
    assert rc == 0
    assert doc["results"]["value"] == pytest.approx(0.3, abs=1e-12)
    assert doc["results"]["lower_bound"] == pytest.approx(0.3, abs=1e-12)


def test_gh_scan_strict_flags_inconclusive_runs(tmp_path, capsys):
    path = tmp_path / "seg.json"
    run_json(capsys, "space", "gen", "--kind", "segment", "--params",
             '{"resolution": 0.02}', "--out", path)
    argv = ["gh", "scan", "--space", path, "--x", 40, "--eps", 0.35,
            "--delta", 0.3, "--k", "1", "--r-samples", 4]
    rc, doc = run_json(capsys, *argv)
    assert rc == 0
    assert doc["results"]["verdicts"]["1"] == "inconclusive"
    rc, _ = run_json(capsys, *argv, "--strict")
    assert rc == 2


def test_gh_regular_mass_splits_sum(tmp_path, capsys):
    path = circle_file(tmp_path, capsys, resolution=12)
    rc, doc = run_json(capsys, "gh", "regular-mass", "--space", path,
                       "--eps", 0.3, "--delta", 1.0, "--k", "1",
                       "--budget", 4, "--r-samples", 3)
    assert rc == 0
    res = doc["results"]
    total = sum(res["overall"].values())
    assert total == pytest.approx(res["scanned_mass"], rel=1e-9)
    assert res["scanned_cells"] == 4


# === report contract ===

def run_error(capsys, *argv):
    """Run a verb that must fail: exit 1 and a schema-valid error object
    on the report stream, named on stderr too."""
    rc, cap = run(capsys, *argv)
    assert rc == 1
    doc = json.loads(cap.out)
    jsonschema.validate(doc, SCHEMA)
    assert set(doc) == {"command", "error"}
    assert doc["error"]["type"] in cap.err
    return doc["error"]


def test_precondition_failure_emits_error_object(tmp_path, capsys):
    path = circle_file(tmp_path, capsys, resolution=12)
    error = run_error(capsys, "gh", "exact", "--space", path, "--space2", path)
    assert error["type"] == "ValueError"


def segment_1600_file(tmp_path, capsys):
    """The 1,600-cell segment of criterion 10, saved as a recipe."""
    path = tmp_path / "seg.json"
    rc, _ = run_json(capsys, "space", "gen", "--kind", "segment", "--params",
                     json.dumps({"resolution": math.pi / 2 / 1600}),
                     "--out", path, "--dist-mode", "recipe")
    assert rc == 0
    return path


def test_deep_path_failure_emits_error_object(tmp_path, capsys, monkeypatch):
    """A lift that overflows the stack still ends in an error object, not
    a traceback."""
    path = segment_1600_file(tmp_path, capsys)

    def overflow(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "lift_to_geodesic_plan", overflow)
    error = run_error(capsys, "mcp", "verify", "--space", path, "--x", 0,
                      "--A", 1599)
    assert error["type"] == "RecursionError"


def test_mcp_verify_lifts_the_1600_cell_segment(tmp_path, capsys):
    path = segment_1600_file(tmp_path, capsys)
    rc, doc = run_json(capsys, "mcp", "verify", "--space", path, "--x", 0,
                       "--A", 1599)
    assert rc == 0
    assert doc["results"]["ok"] is True
    assert doc["results"]["marginal_defect"] == 0.0


def test_unknown_recipe_kind_emits_error_object(tmp_path, capsys):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps({"recipe": {"kind": "torus", "params": {}}}))
    error = run_error(capsys, "space", "validate", "--space", path)
    assert error == {"type": "ValueError",
                     "message": "unknown generator kind 'torus'"}


@pytest.mark.parametrize("verb", [["space", "validate"], ["iso", "enum"]])
def test_zero_cell_space_file_emits_error_object(tmp_path, capsys, verb):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"dist": [], "meta": {}, "points": [],
                                "weights": []}))
    error = run_error(capsys, *verb, "--space", path)
    assert error["type"] == "ValueError"


@pytest.mark.parametrize("dist, message", [
    ([[0, 2, 2], [2, 0, 2], [2, 1, 0]],
     "dist must be symmetric: dist[1, 2] = 2.0, dist[2, 1] = 1.0"),
    ([[0, 2, 2], [2, 1e-12, 2], [2, 2, 0]],
     "dist must have a zero diagonal: dist[1, 1] = 1e-12"),
])
@pytest.mark.parametrize("verb", [["space", "validate"], ["iso", "enum"],
                                  ["gh", "exact"]])
def test_a_matrix_off_the_contract_emits_error_object(tmp_path, capsys,
                                                      verb, dist, message):
    # the asymmetric file once enumerated complete, with the swap [1, 0, 2]
    # at distortion 1.0 under the default tolerance
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dist": dist, "meta": {}, "weights": [1, 1, 1],
                                "points": [{"id": i} for i in range(3)]}))
    if verb == ["gh", "exact"]:
        # the bad file is the second space, which the verb loads itself
        verb = verb + ["--space2", path]
        path = two_point_file(tmp_path, 1.0, "good.json")
    error = run_error(capsys, *verb, "--space", path)
    assert error == {"type": "ValueError", "message": message}


def test_unwritable_report_exits_one_naming_the_path(tmp_path, capsys):
    report = tmp_path / "missing" / "x.json"
    rc, cap = run(capsys, "mcp", "scalar-bound", "--samples", 20,
                  "--report", report)
    assert rc == 1
    assert cap.out == ""
    lines = cap.err.splitlines()
    assert len(lines) == 1
    assert str(report) in lines[0] and "No such file" in lines[0]


def test_solver_failure_emits_error_object(tmp_path, capsys, monkeypatch):
    def failing_solver(*args, **kwargs):
        raise RuntimeError("transport LP failed")

    monkeypatch.setattr("mmslab.cli.solve_w2", failing_solver)
    path = two_point_file(tmp_path, 1.0, "pair.json")
    error = run_error(capsys, "ot", "solve", "--space", path,
                      "--mu0", '{"point": 0}', "--mu1", '{"point": 1}')
    assert error == {"type": "RuntimeError", "message": "transport LP failed"}


def test_unknown_verb_exits_one_with_usage(capsys):
    rc, cap = run(capsys, "gh", "nonsense")
    assert rc == 1
    assert "usage" in cap.err
    rc, cap = run(capsys, "nonsense")
    assert rc == 1


def test_rerun_is_byte_identical(tmp_path, capsys):
    path = circle_file(tmp_path, capsys, resolution=12)
    report = tmp_path / "report.json"
    argv = ["iso", "enum", "--space", path, "--iso-tol", 1e-9,
            "--report", report]
    assert run(capsys, *argv)[0] == 0
    first = report.read_bytes()
    assert run(capsys, *argv)[0] == 0
    assert report.read_bytes() == first
    jsonschema.validate(json.loads(first), SCHEMA)


def test_parser_is_reused_across_calls_after_a_usage_error(tmp_path, capsys):
    """The argparse tree is built once per process: a usage error leaves
    nothing behind, and two later runs give the same report bytes."""
    assert cli._build_parser() is cli._build_parser()
    path = circle_file(tmp_path, capsys, resolution=12)
    rc, cap = run(capsys, "iso", "enum", "--space", path, "--budget", "many")
    assert rc == 1 and "usage" in cap.err
    argv = ["iso", "displacement", "--space", path, "--x", 0, "--r", 1.0,
            "--perm", "[1,2,3,4,5,6,7,8,9,10,11,0]",
            "--perm", "[11,10,9,8,7,6,5,4,3,2,1,0]"]
    report = tmp_path / "report.json"
    reports = []
    for _ in range(2):
        assert run(capsys, *argv, "--report", report)[0] == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]
    doc = json.loads(reports[0])
    assert doc["inputs"]["perm"] == [list(range(1, 12)) + [0],
                                     list(range(11, -1, -1))]


def _readme_verbs():
    """(group, verb) pairs of README's ``mms-lab <group> <verbs>`` block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("every capability as a verb:\n\n```\n")[1]
    pairs = set()
    for line in block.split("```")[0].splitlines():
        _, group, verbs = line.split()
        pairs.update((group, verb) for verb in verbs.split("|"))
    return pairs


def _subparsers(parser):
    return next(a.choices for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))


def _parser_verbs():
    return {(group, verb)
            for group, sub in _subparsers(cli._build_parser()).items()
            for verb in _subparsers(sub)}


def test_iso_defaults_come_from_the_library():
    parse = cli._build_parser().parse_args
    space = ["--space", "s.json"]
    assert parse(["iso", "enum", *space]).budget == DEFAULT_NODE_BUDGET
    for verb, rest in [("enum", []), ("fix", []),
                       ("displacement", ["--x", "0", "--r", "1"]),
                       ("condition-a", ["--x", "0", "--s", "1"]),
                       ("probe", ["--eps", "0.1"]),
                       ("critical-scale", ["--x", "0", "--lo", "0.1",
                                           "--hi", "1"])]:
        assert parse(["iso", verb, *space, *rest]).iso_tol == DEFAULT_ISO_TOL


def test_iso_probe_has_no_group_budget(capsys):
    # every closure obeys the one listing ceiling, symmetry.MAX_LISTED
    rc, cap = run(capsys, "iso", "probe", "--space", "s.json", "--eps", "0.1",
                  "--budget", "5")
    assert rc == 1
    assert "unrecognized arguments: --budget 5" in cap.err


def test_readme_lists_the_verbs_of_the_parser(capsys):
    listed = _readme_verbs()
    for group, verb in sorted(listed):
        rc, cap = run(capsys, group, verb, "--help")
        assert rc == 0, (group, verb)
        assert cap.out.startswith(f"usage: mms-lab {group} {verb} ")
    assert _parser_verbs() == listed


def test_readme_flags_are_options_of_their_verbs():
    # each backticked `<group> <verb> ... --flag` in README.md names
    # options that the verb's parser accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    groups = _subparsers(cli._build_parser())
    pattern = rf"`((?:{'|'.join(groups)}) [a-z][\w-]* [^`]*--[^`]*)`"
    refs = [m.split() for m in re.findall(pattern, readme)]
    assert refs
    for group, verb, *words in refs:
        options = _subparsers(groups[group])[verb]._option_string_actions
        for flag in (w for w in words if w.startswith("--")):
            assert flag in options, (group, verb, flag)


SUPERSCRIPTS = "⁰¹²³⁴⁵⁶⁷⁸⁹"


def _readme_number(text):
    """A number as README.md writes it: 16,384, 10⁷, 2^15 or 1e-9."""
    text = text.rstrip(",.").replace(",", "")
    if "^" in text:
        base, exp = text.split("^")
        return int(base) ** int(exp)
    base = text.rstrip(SUPERSCRIPTS)
    if base != text:
        exp = text[len(base):].translate(str.maketrans(SUPERSCRIPTS,
                                                       "0123456789"))
        return int(base) ** int(exp)
    return float(text)


def test_readme_constants_match_the_code():
    # each backticked `module.NAME` = value in README.md is the constant
    # NAME of mmslab.module
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    refs = re.findall(r"`(\w+)\.([A-Z][A-Z0-9_]*)` =\s+([^\s\]]+)", readme)
    assert len(refs) >= 13
    for module, name, text in refs:
        value = getattr(importlib.import_module(f"mmslab.{module}"), name)
        assert _readme_number(text) == value, (module, name, text)


def test_numbers_carry_twelve_significant_digits(capsys):
    rc, doc = run_json(capsys, "mcp", "scalar-bound", "--samples", 50)
    text = json.dumps(doc["results"])
    for token in ("argmin_d", "min_margin"):
        value = doc["results"][token]
        assert float(f"{value:.12g}") == value


# === golden reports ===
# Every verb runs on small fixed inputs; its results (or error object),
# its exit code and, for the verbs with a table, its CSV text must equal
# the committed file.  Regenerate that file, after a deliberate change
# of a report, with ``PYTHONPATH=src python tests/test_cli.py``.

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_results.json"


def _golden_cases():
    """(name, argv, has_table) for every verb, in run order; the space
    files are written by the first cases or here, in the current
    directory."""
    beads = ((0.4, 0.3), (1.1, 0.3))
    neck = necklace(NecklaceParams(beads=beads, resolution=math.pi / 2 / 120))
    _, fx, _, fcount, fstart, _ = necklace_fibers(neck)
    src_f = int(np.argmin(np.abs(fx - 0.38)))
    tgt_f = int(np.argmin(np.abs(fx - 1.06)))
    src = int(fstart[src_f] + fcount[src_f] // 2)

    earring = hawaiian_truncation(3, 12)
    perm = circle_reflection(earring, 0)
    m = earring.meta["cells_per_circle"]
    x = 5
    mu1 = {"atoms": [{"point": x, "mass": 0.5},
                     {"point": int(perm[x]), "mass": 0.5}]}

    # a 4-point file with d(0, 1) = 3 > d(0, 2) + d(2, 1) = 2
    bad = np.ones((4, 4)) - np.eye(4)
    bad[0, 1] = bad[1, 0] = 3.0
    save_space(FiniteMMS(dist=bad, weight=np.ones(4)), "bad.json")
    # 393 cells, above the exhaustive check: the graph witness covers it
    save_space(segment_space(math.pi / 2 / 393), "seg393.json",
               dist_mode="recipe")

    def gen(kind, params, out):
        return ["space", "gen", "--kind", kind, "--params",
                json.dumps(params), "--out", out]

    return [
        ("gen-segment", gen("segment", {"resolution": 0.02}, "seg.json"),
         False),
        ("gen-segment-coarse", gen("segment", {"resolution": 0.3927},
                                   "seg4.json"), False),
        ("gen-segment-fine", gen("segment", {"resolution": 0.19635},
                                 "seg8.json"), False),
        ("gen-circle", gen("circle", {"radius": 1.0, "resolution": 12},
                           "circle.json"), False),
        ("gen-earring", gen("earring", {"n": 3, "resolution": 12},
                            "earring.json"), False),
        ("gen-necklace", gen("necklace", {"beads": beads,
                                          "resolution": math.pi / 2 / 120},
                             "neck.json"), False),
        ("gen-ball", gen("ball", {"k": 2, "r": 0.5, "resolution": 0.1},
                         "ball.json"), False),
        ("validate", ["space", "validate", "--space", "circle.json"], False),
        ("validate-failing", ["space", "validate", "--space", "bad.json"],
         False),
        ("validate-graph", ["space", "validate", "--space", "seg393.json",
                            "--strict"], False),
        ("ot-solve", ["ot", "solve", "--space", "seg.json",
                      "--mu0", '{"point": 3}',
                      "--mu1", '{"uniform": [50, 51, 52, 53]}'], False),
        ("ot-probe", ["ot", "probe", "--space", "circle.json",
                      "--mu0", '{"uniform": [0, 6]}',
                      "--mu1", '{"uniform": [3, 9]}'], False),
        ("ot-competitor", ["ot", "competitor", "--space", "earring.json",
                           "--mu0", json.dumps({"uniform": [
                               1 + (m - 1) + j for j in range(3, 7)]}),
                           "--mu1", json.dumps(mu1),
                           "--perm", json.dumps([int(v) for v in perm]),
                           "--x", str(x)], False),
        ("mcp-verify", ["mcp", "verify", "--space", "seg.json", "--x", "0",
                        "--A", "60,61,62,63", "--t-samples", "9"], True),
        # the source lies inside its target set: a zero-length atom
        ("mcp-verify-inside", ["mcp", "verify", "--space", "seg.json",
                               "--x", "61", "--A", "60,61,62,63",
                               "--t-samples", "9"], True),
        ("mcp-verify-schedule", ["mcp", "verify", "--space", "neck.json",
                                 "--x", str(src), "--plan", "schedule",
                                 "--target-fiber", str(tgt_f),
                                 "--target-count", "2", "--t-samples", "9"],
         True),
        ("mcp-schedule", ["mcp", "schedule", "--space", "neck.json",
                          "--source", str(src), "--target-fiber", str(tgt_f),
                          "--target-count", "2"], True),
        ("mcp-scalar-bound", ["mcp", "scalar-bound", "--samples", "200"],
         False),
        ("iso-enum", ["iso", "enum", "--space", "circle.json",
                      "--iso-tol", "1e-9"], True),
        ("iso-enum-budget", ["iso", "enum", "--space", "earring.json",
                             "--iso-tol", "1e-9", "--budget", "3"], True),
        ("iso-fix", ["iso", "fix", "--space", "circle.json",
                     "--iso-tol", "1e-9", "--fix-tol", "1e-9",
                     "--ball", "0:1.0", "--ball", "3:0.5"], True),
        ("iso-displacement", ["iso", "displacement", "--space",
                              "circle.json", "--x", "0", "--r", "1.0",
                              "--iso-tol", "1e-9"], False),
        ("iso-condition-a", ["iso", "condition-a", "--space", "ball.json",
                             "--x", "0", "--s", "0.5", "--iso-tol", "1e-9"],
         False),
        ("iso-probe", ["iso", "probe", "--space", "earring.json",
                       "--eps", "0.4", "--iso-tol", "1e-9"], False),
        ("iso-probe-none", ["iso", "probe", "--space", "circle.json",
                            "--eps", "0.3", "--iso-tol", "1e-9"], False),
        ("iso-escape", ["iso", "escape", "--q", "[[0, -1], [1, 0]]",
                        "--v", "[0, 0]"], False),
        ("iso-escape-random", ["iso", "escape", "--random", "--k", "3",
                               "--seed", "11"], False),
        ("iso-critical-scale", ["iso", "critical-scale", "--space",
                                "earring.json", "--x", "0", "--lo", "0.8",
                                "--hi", "63.0", "--tol", "1e-4",
                                "--iso-tol", "1e-9"], False),
        ("gh-exact", ["gh", "exact", "--space", "seg4.json",
                      "--space2", "seg8.json"], False),
        ("gh-scan", ["gh", "scan", "--space", "seg.json", "--x", "40",
                     "--eps", "0.35", "--delta", "0.3", "--k", "1,2",
                     "--r-samples", "3"], True),
        ("gh-regular-mass", ["gh", "regular-mass", "--space", "circle.json",
                             "--eps", "0.3", "--delta", "1.0", "--k", "1,2",
                             "--budget", "4", "--r-samples", "3"], False),
        ("error", ["gh", "exact", "--space", "circle.json",
                   "--space2", "circle.json"], False),
        ("error-scan-r-samples", ["gh", "scan", "--space", "seg.json",
                                  "--x", "40", "--eps", "0.35", "--delta",
                                  "0.3", "--r-samples", "0"], False),
        ("error-regular-mass-r-samples", ["gh", "regular-mass", "--space",
                                          "circle.json", "--eps", "0.3",
                                          "--delta", "1.0", "--r-samples",
                                          "-3"], False),
    ]


def _golden_runs():
    """Run the golden cases in the current directory.  Each report must
    match the schema; returns {name: {"exit", "command", "inputs",
    "paper_anchor", "results" or "error", "csv"}}.  ``versions`` is left
    out, since it names the installed numpy and scipy."""
    runs = {}
    for name, argv, has_table in _golden_cases():
        rc = main(argv + ["--report", name + ".report"])
        doc = json.loads(Path(name + ".report").read_text())
        jsonschema.validate(doc, SCHEMA)
        entry = {"exit": rc}
        entry.update((k, doc[k]) for k in ("command", "inputs", "paper_anchor",
                                           "results", "error") if k in doc)
        if has_table:
            assert main(argv + ["--csv", "--report", name + ".csv"]) == rc
            entry["csv"] = Path(name + ".csv").read_text()
        runs[name] = entry
    return runs


def test_golden_reports(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runs = _golden_runs()
    golden = json.loads(GOLDEN.read_text())
    assert sorted(runs) == sorted(golden)
    for name, entry in runs.items():
        assert (json.dumps(entry, sort_keys=True)
                == json.dumps(golden[name], sort_keys=True)), name
    assert runs["iso-enum-budget"]["results"]["complete"] is False
    assert runs["validate-failing"]["results"]["ok"] is False
    assert runs["validate-failing"]["results"]["triangle_violations"]
    assert runs["iso-probe"]["results"]["subgroup"] is not None
    assert runs["iso-probe-none"]["results"]["subgroup"] is None
    assert runs["error"]["exit"] == 1


def test_main_loads_each_space_file_once(tmp_path, monkeypatch):
    # main loads --space for every verb that has it; only gh exact loads a
    # second file, its --space2
    monkeypatch.chdir(tmp_path)
    loads = []

    def counted(path):
        loads.append(path)
        return load_space(path)

    monkeypatch.setattr(cli, "load_space", counted)
    for name, argv, _ in _golden_cases():
        loads.clear()
        main(argv + ["--report", name + ".report"])
        assert loads == [argv[argv.index(flag) + 1]
                         for flag in ("--space", "--space2") if flag in argv], name


def test_golden_reports_without_the_avx512_kernels(tmp_path):
    """numpy picks SIMD kernels when it starts, and some of them round
    differently (its cube, for one); a child process with the AVX-512
    kernels switched off must still give the committed reports."""
    env = dict(os.environ,
               NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR",
               PYTHONPATH=os.pathsep.join(
                   [str(GOLDEN.parents[2] / "src"),
                    os.environ.get("PYTHONPATH", "")]))
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "from test_cli import _golden_runs; "
            "print(json.dumps(_golden_runs(), sort_keys=True))")
    child = subprocess.run([sys.executable, "-c", code,
                            str(GOLDEN.parents[1])], cwd=tmp_path, env=env,
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        GOLDEN.write_text(json.dumps(_golden_runs(), indent=1, sort_keys=True)
                          + "\n")
