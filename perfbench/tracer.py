"""Boundary tracer: wraps the module-level names rimflow's callers look up.

Each wrapper records one span [name, start, end, parent, ok, tag] in memory;
`parent` is the index of the enclosing span (-1 at the root) and `tag` holds
the few argument/result fields a metric needs.  Nothing inside a solver is
read: every binding below is a name one module imports from another and
calls through its own globals, so replacing it there sees every call made
through that boundary.
"""
from __future__ import annotations

import functools
import importlib
import math
import statistics
import time
from collections import defaultdict

# (module, attribute, span name).  A span name may be bound at several call
# sites: capillary_solve is called from the CLI for the first target and from
# continue_branch for the rest.
BINDINGS = (
    ("rimflow.cli", "main", "cli.main"),
    ("rimflow.cli", "run", "evolve.run"),
    ("rimflow.evolve", "step", "evolve.step"),
    ("rimflow.evolve", "energy", "model.energy"),
    ("rimflow.evolve", "entropy_G", "model.entropy_G"),
    ("rimflow.cli", "capillary_solve", "steady.capillary_solve"),
    ("rimflow.steady", "capillary_solve", "steady.capillary_solve"),
    ("rimflow.cli", "continue_branch", "steady.continue_branch"),
    ("rimflow.cli", "moffatt_profile", "steady.moffatt_profile"),
    ("rimflow.steady", "moffatt_roots", "steady.moffatt_roots"),
    ("rimflow.cli", "solvability_residuals", "steady.solvability_residuals"),
    ("rimflow.steady", "diff_matrix", "grid.diff_matrix"),
    ("rimflow.cli", "write_field_csv", "grid.write_field_csv"),
    ("rimflow.cli", "dissipation_check", "bounds.report"),
    ("rimflow.cli", "gradient_bound_check", "bounds.report"),
    ("rimflow.cli", "interpolation_check", "bounds.report"),
    ("rimflow.cli", "write_diagnostics_csv", "bounds.report"),
    ("rimflow.cli", "write_reports_json", "bounds.report"),
)


def _step_tag(args, result):
    """(n, dt_used, rejected attempts, Newton iterations) of one accepted step.

    step() halves the attempted dt once per rejected attempt, so the number
    of rejections is log2(attempt.dt / dt_used).
    """
    attempt = args[0]
    dt_used = result.t - attempt.t
    return (attempt.h.values.size, round(math.log2(attempt.dt / dt_used)), result.newton_iters_last)


TAGS = {"evolve.step": _step_tag}

RUNGS = (256, 512, 1024)


class Tracer:
    def __init__(self):
        self.spans = []
        self.absent = []
        self._stack = []
        self._saved = []

    def install(self) -> None:
        for module_name, attr, span in BINDINGS:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span, TAGS.get(span)))

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name, tag):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False, None]
            spans.append(span)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                span[1] = start
                stack.pop()
            span[4] = True
            if tag is not None:
                span[5] = tag(args, result)
            return result

        return traced


def _p(values, q):
    """Nearest-rank percentile; 0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans, absent, tree_bytes) -> dict:
    """Per-layer metrics of one traced run; 0 where a layer did no work."""
    seconds = defaultdict(float)
    calls = defaultdict(int)
    ok = defaultdict(int)
    children = [0.0] * len(spans)
    step_children = [0.0] * len(spans)
    step_us = defaultdict(list)
    solve_ms = []
    rejected = newton = 0
    for name, start, end, parent, success, tag in spans:
        d = end - start
        seconds[name] += d
        calls[name] += 1
        ok[name] += success
        if parent >= 0:
            children[parent] += d
            if name == "evolve.step":
                step_children[parent] += d
        if name == "evolve.step" and success:
            n, rej, iters = tag
            step_us[n].append(d * 1e6)
            rejected += rej
            newton += iters
        elif name == "steady.capillary_solve":
            solve_ms.append(d * 1e3)

    def self_time(span_name, subtract):
        return sum(s[2] - s[1] - subtract[i] for i, s in enumerate(spans) if s[0] == span_name)

    attempts = calls["steady.capillary_solve"]
    m = {}
    for n in RUNGS:
        m[f"evolve.step_us_p50.n{n}"] = statistics.median(step_us[n]) if step_us[n] else 0.0
        m[f"evolve.step_us_p99.n{n}"] = _p(step_us[n], 0.99)
    m["evolve.step_s"] = seconds["evolve.step"]
    m["evolve.us_per_newton_iter"] = seconds["evolve.step"] * 1e6 / newton if newton else 0.0
    m["evolve.accepted_steps"] = ok["evolve.step"]
    m["evolve.rejected_attempts"] = rejected
    m["evolve.newton_iters"] = newton
    m["evolve.monitor_s"] = self_time("evolve.run", step_children)
    m["model.energy_s"] = seconds["model.energy"]
    m["model.energy_calls"] = calls["model.energy"]
    m["model.entropy_G_s"] = seconds["model.entropy_G"]
    m["model.entropy_G_calls"] = calls["model.entropy_G"]
    m["steady.solve_attempts"] = attempts
    m["steady.solve_ok"] = ok["steady.capillary_solve"]
    m["steady.solve_success_ratio"] = ok["steady.capillary_solve"] / attempts if attempts else 0.0
    m["steady.solve_ms_p50"] = statistics.median(solve_ms) if solve_ms else 0.0
    m["steady.continue_branch_s"] = seconds["steady.continue_branch"]
    m["steady.moffatt_profile_s"] = seconds["steady.moffatt_profile"]
    m["steady.moffatt_roots_calls"] = calls["steady.moffatt_roots"]
    m["steady.solvability_s"] = seconds["steady.solvability_residuals"]
    m["grid.diff_matrix_calls"] = calls["grid.diff_matrix"]
    m["grid.diff_matrix_s"] = seconds["grid.diff_matrix"]
    m["grid.write_field_csv_calls"] = calls["grid.write_field_csv"]
    m["grid.write_field_csv_s"] = seconds["grid.write_field_csv"]
    m["grid.bytes_written"] = tree_bytes
    m["bounds.reports_s"] = seconds["bounds.report"]
    m["cli.self_s"] = self_time("cli.main", children)
    m["trace.absent_bindings"] = len(absent)
    return m
