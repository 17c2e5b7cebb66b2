"""Smoke test of the benchmark harness, through the real launcher.

    python3 -m pytest perfbench

Every workload runs at its smoke size, untraced and traced, so a change to
the library's API or to the harness that breaks a workload shows here in
about a minute instead of in a full benchmark run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def launch(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def run(workload, trace):
    proc = launch(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, info, result = proc.stdout.strip().splitlines()
    return json.loads(info)["perfbench"], json.loads(result)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    info, result = run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= info["tasks"] >= 4
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"] and metric["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_their_counts_and_digest(workload):
    info_a, a = run(workload, 1)
    info_b, b = run(workload, 1)
    assert a["correct"] and b["correct"]
    assert info_a["digest"] == info_b["digest"]
    assert list(a["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for spec in SPEC["per_layer"]:
        name = spec["name"]
        va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
        if name.endswith(".busy_s"):
            assert va > 0, name       # every layer is touched
        elif spec["unit"] != "s":
            assert va == vb, name     # counts and ratios are deterministic


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = launch("necklace", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
