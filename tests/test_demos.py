"""Smoke tests of the capability tour: the spaces, transport, contraction,
symmetry, regularity and CLI demos run as scripts and print their
verdicts."""

import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@lru_cache(maxsize=None)
def run_demo(script):
    """Standard output of a demo; each script runs once per session."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_spaces_demo_runs_and_round_trips_exactly():
    assert "round trip exact: True" in run_demo("01_spaces.py")


@pytest.mark.parametrize("script, verdict", [
    ("02_transport.py", "competitor ok? True"),
    ("03_contraction.py", "density bound ok=True heights ok=True"),
    ("04_symmetry.py", "enumeration complete=True: 64 maps (chain order 64, "
                       "base of 6 cells, 27 search nodes)"),
    ("04_symmetry.py", "30-circle wedge: order 1073741824 = 2^30"),
    ("04_symmetry.py", "30-circle wedge: displacement at x=0, r=1 is 0.7854 "
                       "(pi/4 = 0.7854)"),
    ("04_symmetry.py", "critical scale r=62.8319 (20 pi = 62.8319)"),
    ("04_symmetry.py", "closure: order 64, closed=True"),
    ("05_regularity.py", "necklace vertex, eps=0.02: verdict 'out'"),
    ("06_cli.py", "isometries: 8 complete: True"),
])
def test_demo_runs_and_prints_its_verdict(script, verdict):
    assert verdict in run_demo(script)


def test_transport_demo_pins_both_probe_verdicts():
    """The generic instance has one optimal plan; the earring instance has
    the reflected second plan, and the probe must find it too."""
    out = run_demo("02_transport.py")
    assert "uniqueplan?    True" in out
    assert "probe agrees:  unique=False" in out
