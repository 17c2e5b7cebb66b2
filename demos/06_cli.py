"""
Driving the command line in a batch
====================================

Every library capability is reachable through the mms-lab executable.
Each run writes a JSON report with the echoed inputs, the library and
interpreter versions, and the results; reruns of the same command are
byte-identical.  This script generates a space, validates it, and runs
one verb from each family against it.

Each command runs as ``python -m mmslab.cli``, the program behind the
mms-lab executable, with this checkout's ``src/`` first on the child's
PYTHONPATH, so the demo works without installing the package.
"""

import json
import os
import pathlib
import subprocess
import sys
import tempfile

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))


def run(*args):
    """Run one mms-lab command and return the parsed report."""
    report = WORK / f"report_{run.counter:02d}.json"
    run.counter += 1
    print("$ mms-lab", " ".join(args))
    cmd = [sys.executable, "-m", "mmslab.cli", *args, "--report", str(report)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=ENV)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(proc.returncode)
    return json.loads(report.read_text())


run.counter = 0

# every file and report goes to a directory removed at the end
with tempfile.TemporaryDirectory(prefix="mms_demo_") as tmp:
    WORK = pathlib.Path(tmp)

    # generate an earring space and validate it
    space = WORK / "earring.json"
    doc = run("space", "gen", "--kind", "earring",
              "--params", '{"n": 3, "resolution": 24}', "--out", str(space))
    print("  cells:", doc["results"]["cells"])

    doc = run("space", "validate", "--space", str(space))
    print("  ok:", doc["results"]["ok"],
          "worst triangle defect:", doc["results"]["worst_triangle_defect"])

    # optimal transport between two point masses on the largest circle
    doc = run("ot", "solve", "--space", str(space),
              "--mu0", '{"point": 5}', "--mu1", '{"point": 12}')
    print("  W2 distance:", doc["results"]["w2"])

    # enumerate the isometry group
    doc = run("iso", "enum", "--space", str(space), "--iso-tol", "1e-9")
    print("  isometries:", doc["results"]["count"],
          "complete:", doc["results"]["complete"])

    # search for an almost-trivial subgroup at a generous threshold
    doc = run("iso", "probe", "--space", str(space), "--eps", "0.4",
              "--iso-tol", "1e-9")
    print("  small subgroup found:", doc["results"]["found"],
          "sup displacement:", doc["results"]["sup_displacement"])

    # the scalar estimate behind the contraction bound
    doc = run("mcp", "scalar-bound", "--samples", "400")
    print("  scalar bound ok:", doc["results"]["ok"],
          "min margin:", doc["results"]["min_margin"])

    # exact GH distance between two generated segments
    seg_a = WORK / "seg_a.json"
    seg_b = WORK / "seg_b.json"
    run("space", "gen", "--kind", "segment",
        "--params", '{"resolution": 0.3927}', "--out", str(seg_a))
    run("space", "gen", "--kind", "segment",
        "--params", '{"resolution": 0.19635}', "--out", str(seg_b))
    doc = run("gh", "exact", "--space", str(seg_a), "--space2", str(seg_b))
    print("  GH(coarse segment, fine segment):", doc["results"]["value"])

    # every report carries the same envelope
    print("\nreport envelope keys:", sorted(doc))
    print("versions:", doc["versions"])
