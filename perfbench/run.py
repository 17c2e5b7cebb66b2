"""Benchmark of the mms-lab library: one workload, one seed, one run.

    python3 perfbench/run.py --workload necklace --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout: the library is imported from
the checkout's ``src/`` and nothing else, and the metric names and units
come from the checkout's ``BENCHMARK.json``.  The load is a closed loop
with one client: tasks run one at a time, in whole passes over the
workload's seeded task list, as many as fit in ``--seconds``.
``--trace 1`` instead runs exactly one untraced and one traced pass and
reports the per-layer metrics.  ``--smoke`` shrinks every task.

Standard output ends with two JSON lines: run details (digest, task
counts, tail percentile, failures, machine), then the result object.
"""

import os
import sys
import time

START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import ctypes.util  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
# On a host that shares its cores with other machines, speed changes by up
# to a factor of two, for seconds to minutes at a time.  A fixed loop that
# never touches mmslab is timed around every task, and each task time is
# scaled by REFERENCE_S over the loop's time at that moment: the time the
# task takes when the loop takes REFERENCE_S.  The loop takes 0.4 to
# 0.7 ms on two vCPUs of a shared Intel Xeon host, 0.4 ms when nothing
# else runs on it.
REFERENCE_S = 5.0e-4
_REFERENCE_DATA = []


def cap_threads():
    """Cap every BLAS/OpenMP pool at the CPUs this process may use; must
    run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            want = int(os.environ.get(var, nproc))
        except ValueError:
            want = nproc
        os.environ[var] = str(min(max(want, 1), nproc))
    return nproc


def commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(nproc):
    import numpy
    import scipy

    return {"arch": platform.machine(), "nproc": nproc,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": commit(),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def _sig(obj):
    """JSON-ready copy with floats rounded to 12 significant digits."""
    if hasattr(obj, "tolist"):          # numpy scalars and arrays
        obj = obj.tolist()
    if isinstance(obj, float):
        return float(f"{obj:.12g}") if math.isfinite(obj) else repr(obj)
    if isinstance(obj, dict):
        return {str(k): _sig(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sig(v) for v in obj]
    return obj


def digest(summary):
    """sha256 of a task summary with floats rounded to 12 digits."""
    text = json.dumps(_sig(summary), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def reference():
    """Seconds for the fixed loop of bytecode and small numpy operations,
    the shortest of three tries."""
    import numpy as np

    if not _REFERENCE_DATA:
        _REFERENCE_DATA.append(np.arange(2048.0))
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc, seen = 0, {}
        for i in range(1500):
            acc = (acc + i * i) % 1000003
            seen[i & 63] = acc
        x = _REFERENCE_DATA[0]
        for _ in range(40):
            x = np.sqrt(x * 1.0001 + 1.0)
        np.argsort(x[::-1])
        best = min(best, time.perf_counter() - start)
    return best


def adjusted(seconds, reference_s):
    return seconds * REFERENCE_S / reference_s


class Stats:
    """Per-task wall times and outcomes over every pass of a run.  Each
    sample keeps its wall time and its host-adjusted time."""

    def __init__(self, tasks):
        self.samples = {t.name: [] for t in tasks}
        self.adjusted = {t.name: [] for t in tasks}
        self.references = []
        self.digests = {}
        self.attempted = 0
        self.failed = 0
        self.failures = {}       # task name -> "known" or "unexpected"

    def add(self, task, seconds, reference_s, ok, result):
        self.attempted += 1
        self.samples[task.name].append(seconds)
        self.adjusted[task.name].append(adjusted(seconds, reference_s))
        self.references.append(reference_s)
        first = self.digests.setdefault(task.name, result)
        if ok and result == first:
            return
        self.failed += 1
        known = task.known_defect and result == first
        if self.failures.get(task.name) != "unexpected":
            self.failures[task.name] = "known" if known else "unexpected"

    def best(self, host_adjusted=True):
        samples = self.adjusted if host_adjusted else self.samples
        return [min(v) for v in samples.values()]

    @property
    def correct(self):
        return "unexpected" not in self.failures.values()

    def digest(self, tasks):
        return digest([self.digests[t.name] for t in tasks])


def _malloc_trim():
    """glibc's malloc_trim, or a no-op where there is none."""
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c") or "libc.so.6")
        return libc.malloc_trim
    except (OSError, AttributeError):
        return lambda pad: 0


TRIM = _malloc_trim()


def execute(task, tracer):
    tracer.task = task.name
    start = time.perf_counter()
    try:
        ok, summary = task.run(tracer)
    except Exception as exc:  # a raising task is a failed task, not a crash
        ok, summary = False, {"raised": type(exc).__name__}
    return time.perf_counter() - start, bool(ok), digest(summary)


def spread(n):
    """An order of ``range(n)`` that visits it with a stride near 0.38 n
    and coprime to n.  The lists keep a cost class together; this order
    spreads each class over the whole pass, so the tasks that set a
    percentile are timed at different moments of it, not all within the
    same few seconds."""
    step = max(1, round(0.38 * n))
    while math.gcd(step, n) != 1:
        step += 1
    return [(i * step) % n for i in range(n)]


def run_tasks(tasks, tracer, stats, seconds=None):
    """Whole passes over the task list: one when ``seconds`` is None,
    otherwise passes until the next one would end more than half a pass
    after ``seconds``.  Whole passes give every task the same number of
    samples and keep the mix of every run the same.  Between two tasks the
    reference loop is timed, and then the freed heap is handed back to the
    system, so each task starts from the same kind of heap and the peak
    memory of a run does not depend on how the freed blocks of earlier
    tasks happened to lie.  Returns the elapsed wall time."""
    order = [tasks[i] for i in spread(len(tasks))]
    start = now = time.perf_counter()
    before = reference()
    while True:
        begun = now
        for task in order:
            took, ok, result = execute(task, tracer)
            after = reference()
            TRIM(0)
            stats.add(task, took, 0.5 * (before + after), ok, result)
            before = after
        now = time.perf_counter()
        if seconds is None or now - start + 0.5 * (now - begun) > seconds:
            return now - start


def tail(values):
    """Value at the highest percentile with at least ten values beyond
    it (the largest value when there are fewer than eleven), and that
    percentile."""
    ranked = sorted(values)
    rank = len(ranked) - 11 if len(ranked) > 10 else len(ranked) - 1
    return ranked[rank], 100.0 * (rank + 1) / len(ranked)


def end_to_end(stats, setup_s, host_adjusted=True):
    """Each task counts with its best host-adjusted time over the passes,
    the least disturbed by other load on the host (a slower program is
    slower in every pass).  ``tasks_per_s`` is the rate of one pass at
    those times."""
    per_task = stats.best(host_adjusted)
    tail_s, pct = tail(per_task)
    return {
        "tasks_per_s": len(per_task) / sum(per_task),
        "task_p50_s": statistics.median(per_task),
        "task_tail_s": tail_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }, pct


def per_layer(tracer, overhead_s, names):
    c = tracer.counts

    def ratio(a, b):
        return c[a] / c[b] if c[b] else 0.0

    derived = {
        "symmetry.maps_per_node": ratio("symmetry.enumerate_isometries.maps",
                                        "symmetry.enumerate_isometries.nodes"),
        "symmetry.complete_ratio": ratio(
            "symmetry.enumerate_isometries.complete",
            "symmetry.enumerate_isometries.calls"),
        "regularity.decided_ratio": ratio(
            "regularity.epsilon_regular_scan.decided",
            "regularity.epsilon_regular_scan.rows"),
        "trace.overhead_s": overhead_s,
        "trace.spans": len(tracer.spans),
    }
    values = {}
    for name in names:
        if name in derived:
            values[name] = derived[name]
        elif name.endswith(".busy_s"):
            values[name] = tracer.busy(name[:-len(".busy_s")])
        else:
            values[name] = c[name]
    return values


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["necklace", "transport", "symmetry", "cli"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the harness's own test")
    return p.parse_args(argv)


def main(argv=None):
    args = parse(argv)
    nproc = cap_threads()
    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "mmslab" / "__init__.py").is_file() \
            or not spec_path.is_file():
        print(f"perfbench: {ROOT} is not an mms-lab checkout "
              "(needs src/mmslab and BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import tracing
    import workloads

    spec = json.loads(spec_path.read_text())
    imports_s = time.perf_counter() - START

    scratch = ROOT / ".perfbench"
    work = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    idle = tracing.Tracer()
    try:
        setups, setup_refs = [], [reference()]
        for rep in range(SETUP_REPEATS):
            t = time.perf_counter()
            shutil.rmtree(work, ignore_errors=True)
            tasks = workloads.build(args.workload, args.seed,
                                    str(work / "run"), smoke=args.smoke)
            for task in workloads.build(args.workload, args.seed,
                                        str(work / "warm"), smoke=True):
                execute(task, idle)
            setups.append(time.perf_counter() - t)
            setup_refs.append(reference())
        setup_wall_s = imports_s + statistics.median(setups)
        setup_s = adjusted(setup_wall_s, statistics.median(setup_refs))

        stats = Stats(tasks)
        if args.trace:
            untraced_s = run_tasks(tasks, idle, stats)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_s = run_tasks(tasks, tracer, stats)
            finally:
                tracer.remove()
            tracer.write(scratch /
                         f"trace-{args.workload}-{args.seed}.jsonl")
            names = [m["name"] for m in spec["per_layer"]]
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            values = per_layer(tracer, traced_s - untraced_s, names)
            elapsed, pct, wall = untraced_s + traced_s, None, None
        else:
            elapsed = run_tasks(tasks, idle, stats, seconds=args.seconds)
            names = [m["name"] for m in spec["end_to_end"]]
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            values, pct = end_to_end(stats, setup_s)
            wall, _ = end_to_end(stats, setup_wall_s, host_adjusted=False)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = {
        "workload": args.workload, "seed": args.seed,
        "size": "smoke" if args.smoke else "full", "trace": args.trace,
        "tasks": len(tasks), "executions": stats.attempted,
        "elapsed_s": elapsed, "tail_percentile": pct,
        "imports_s": imports_s, "setups_s": setups,
        "failed_ratio": stats.failed / stats.attempted,
        "failures": stats.failures, "digest": stats.digest(tasks),
        "reference_s": statistics.median(stats.references),
        "setup_reference_s": statistics.median(setup_refs),
        "wall_metrics": wall,
        "wall_tasks_per_s": stats.attempted / elapsed,
        "task_best_s": {name: min(v) for name, v in stats.adjusted.items()},
        "task_best_wall_s": {name: min(v)
                             for name, v in stats.samples.items()},
        "machine": machine(nproc),
    }
    print(json.dumps({"perfbench": info}, sort_keys=True))
    print(json.dumps({
        "correct": stats.correct, "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
