"""Spans and counters recorded around calls into public mmslab functions.

A traced pass replaces each function listed in ``WRAPPED`` by a timing
wrapper in every mmslab module that refers to it, so a call the library
makes to one of its own public functions (``uniqueness_probe`` calling
``solve_w2``, the CLI calling ``save_space``) becomes a child span.  The
program's files are not touched, and untraced passes never install the
wrappers.  Spans stay in memory until ``write`` is called at the end.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

MODULES = ("mmslab", "mmslab.core", "mmslab.generators", "mmslab.transport",
           "mmslab.contraction", "mmslab.symmetry", "mmslab.regularity",
           "mmslab.cli")


def _cells(bound, space):
    n = space.n
    return {"generators.cells": n, "generators.dist_mb": 8.0 * n * n / 1e6}


def _file_mb(layer):
    return lambda bound, _: {f"{layer}.mb":
                             os.path.getsize(bound.arguments["path"]) / 1e6}


def _mcp_evals(bound, _):
    times = bound.arguments.get("t_samples")
    return {"contraction.mcp_check.evals":
            len(bound.arguments["plan"].atoms)
            * (33 if times is None else len(times))}


def _enum_counts(_, res):
    return {"symmetry.enumerate_isometries.nodes": res.nodes,
            "symmetry.enumerate_isometries.maps": len(res.maps),
            "symmetry.enumerate_isometries.complete": int(res.complete)}


def _scan_counts(_, rep):
    decided = sum(row.verdict in ("in", "out") for row in rep.rows)
    return {"regularity.epsilon_regular_scan.rows": len(rep.rows),
            "regularity.epsilon_regular_scan.decided": decided}


# function name -> (span name, counters taken from the bound arguments and
# the result, or None)
WRAPPED = {
    "necklace": ("generators.necklace", _cells),
    "segment_space": ("generators.other", _cells),
    "circle_space": ("generators.other", _cells),
    "hawaiian_truncation": ("generators.other", _cells),
    "euclidean_ball_grid": ("generators.other", _cells),
    "validate_space": ("core.validate_space", lambda b, r: {
        "core.validate_space.triples": r.triples_checked}),
    "save_space": ("core.save_space", _file_mb("core.save_space")),
    "load_space": ("core.load_space", _file_mb("core.load_space")),
    "solve_w2": ("transport.solve_w2", lambda b, r: {
        "transport.solve_w2.lp_vars": r.coupling.matrix.size}),
    "uniqueness_probe": ("transport.uniqueness_probe", None),
    "brute_force_w2": ("transport.brute_force_w2", None),
    "lift_to_geodesic_plan": ("transport.lift_to_geodesic_plan",
                              lambda b, r: {
                                  "transport.lift_to_geodesic_plan.atoms":
                                  len(r.atoms)}),
    "symmetrized_competitor": ("transport.competitor", None),
    "verify_competitor": ("transport.competitor", None),
    "mcp_check": ("contraction.mcp_check", _mcp_evals),
    "necklace_schedule": ("contraction.necklace_schedule", None),
    "schedule_density_check": ("contraction.schedule_density_check", None),
    "enumerate_isometries": ("symmetry.enumerate_isometries", _enum_counts),
    "generate_subgroup": ("symmetry.generate_subgroup", lambda b, r: {
        "symmetry.generate_subgroup.elements": len(r)}),
    "fixed_set": ("symmetry.fixed_set", None),
    "condition_a_scan": ("symmetry.condition_a_scan", None),
    "small_subgroup_probe": ("symmetry.small_subgroup_probe", None),
    "gh_exact": ("regularity.gh_exact", None),
    "epsilon_regular_scan": ("regularity.epsilon_regular_scan", _scan_counts),
}


class Tracer:
    """Collects spans (name, start, end, parent, task) and summed counts.

    ``span`` is a no-op until ``install`` has been called, so the same
    task code runs traced and untraced.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.task = None
        self.enabled = False
        self._stack = []
        self._patched = []

    def count(self, name, value=1):
        self.counts[name] += value

    @contextlib.contextmanager
    def _record(self, name):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            self.count(f"{name}.failed")
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.task)
            self.count(f"{name}.calls")

    def span(self, name):
        return self._record(name) if self.enabled else contextlib.nullcontext()

    def _wrap(self, fn, name, counter):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            with self._record(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                for key, value in counter(bound, result).items():
                    self.count(key, value)
            return result

        return wrapper

    def install(self):
        modules = [importlib.import_module(m) for m in MODULES]
        for fname, (name, counter) in WRAPPED.items():
            original = getattr(modules[0], fname)
            wrapper = self._wrap(original, name, counter)
            for mod in modules:
                if getattr(mod, fname, None) is original:
                    setattr(mod, fname, wrapper)
                    self._patched.append((mod, fname, original))
        self.enabled = True

    def remove(self):
        for mod, fname, original in reversed(self._patched):
            setattr(mod, fname, original)
        self._patched.clear()
        self.enabled = False

    def busy(self, name):
        return sum(end - start for n, start, end, _, _ in self.spans
                   if n == name)

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, task in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "task": task}) + "\n")
