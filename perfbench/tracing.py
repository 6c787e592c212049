"""Spans recorded around the calls that ``coreset_iht.cli`` makes into the
other package modules, and the per-layer numbers derived from them.

The program itself is not changed: ``instrument`` rebinds the names that
``cli`` imported (``cli.build_projection`` and so on) to wrappers that record
a span per call, so the traced sweep runs the same code as an untraced one.
Spans are kept in memory and handed back when the sweep ends; the worker
process exits after that, so the rebinding is never undone.
"""

from __future__ import annotations

import functools
import time
import uuid
from contextlib import contextmanager

# The solver every workload runs (``coreset-iht sweep --solver``).
SOLVER = "aiht_debias"
# Public functions that cli calls, grouped by the module (layer) they live in.
# ``ProjectionSet.to_problem`` builds the ``problem`` layer's object; it is a
# method, so it is wrapped on the class.
CLI_CALLS = {
    "models": ("synth_gaussian_dataset", "synth_glm_dataset", "synth_radial_basis_model",
               "full_data_posterior", "build_projection"),
    "solvers": (f"solve_{SOLVER}",),
    "evaluation": ("coreset_kl", "map_l2_distance"),
}
ROOT_SPAN = "cli.sweep"
TO_PROBLEM_SPAN = "problem.to_problem"


class Tracer:
    """Collects spans of one sweep. Single-threaded: the sweep runs with
    ``workers=1``, so the open spans form a stack."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans = []
        self.solves = []
        self.first_solve = None
        self._stack = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append({"name": name, "id": span_id, "parent": parent,
                               "run": self.run_id, "start_ns": start, "end_ns": end})

    def wrap(self, name: str, fn, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if on_return is not None:
                on_return(args, out)
            return out
        return traced

    def record_solve(self, args, out) -> None:
        """Keep what the per-layer metrics and the objective check need from
        one solver call: ``objective`` is ||y - phi w||^2 re-evaluated for
        the returned weights on the problem cli built."""
        from coreset_iht import objective

        problem, scfg = args[0], args[1]
        weights, trace = out
        y_sq = float(problem.y @ problem.y)
        f_final = trace.records[-1].f if trace.records else y_sq
        self.solves.append({
            "k": scfg.k,
            "iters": len(trace.records),
            "termination": trace.termination.value,
            "iter_ns": [r.ns for r in trace.records],
            "obj_rel": f_final / y_sq,
            "support": [int(i) for i in weights.support],
            "values": [float(v) for v in weights.w[weights.support]],
            "objective": float(objective(problem, weights.w)),
            "y_sq": y_sq,
        })
        if self.first_solve is None:
            self.first_solve = (problem, scfg.k, weights)


def instrument(cli, tracer: Tracer) -> None:
    """Route cli's calls through span-recording wrappers."""
    from coreset_iht import models

    for layer, names in CLI_CALLS.items():
        for name in names:
            hook = tracer.record_solve if layer == "solvers" else None
            setattr(cli, name, tracer.wrap(f"{layer}.{name}", getattr(cli, name), hook))
    models.ProjectionSet.to_problem = tracer.wrap(TO_PROBLEM_SPAN,
                                                  models.ProjectionSet.to_problem)


# -- analysis of recorded spans ---------------------------------------------

def self_ns(span: dict, children: list) -> int:
    """Span duration minus the part of its interval its children cover."""
    lo, hi = span["start_ns"], span["end_ns"]
    covered = 0
    cursor = lo
    for child in sorted(children, key=lambda c: c["start_ns"]):
        start = max(child["start_ns"], cursor)
        end = min(child["end_ns"], hi)
        if end > start:
            covered += end - start
            cursor = end
    return (hi - lo) - covered


def check_spans(spans: list) -> list:
    """Problems with the span tree; empty when the spans nest properly."""
    problems = []
    if not spans:
        return ["no spans recorded"]
    by_id = {s["id"]: s for s in spans}
    if len(by_id) != len(spans):
        problems.append("duplicate span ids")
    if len({s["run"] for s in spans}) != 1:
        problems.append("spans do not share one run id")
    roots = [s for s in spans if s["parent"] is None]
    if len(roots) != 1:
        problems.append(f"expected one root span, found {len(roots)}")
    children = {s["id"]: [] for s in spans}
    for s in spans:
        if s["end_ns"] < s["start_ns"]:
            problems.append(f"span {s['id']} ({s['name']}) ends before it starts")
        if s["parent"] is None:
            continue
        parent = by_id.get(s["parent"])
        if parent is None:
            problems.append(f"span {s['id']} ({s['name']}) has a missing parent")
            continue
        children[parent["id"]].append(s)
        if s["start_ns"] < parent["start_ns"] or s["end_ns"] > parent["end_ns"]:
            problems.append(f"span {s['id']} ({s['name']}) lies outside its parent")
    for s in spans:
        if self_ns(s, children[s["id"]]) < 0:
            problems.append(f"span {s['id']} ({s['name']}) has negative self time")
    return problems


def children_of(spans: list, span_id) -> list:
    return [s for s in spans if s["parent"] == span_id]


def durations_ms(spans: list, name: str) -> list:
    return [(s["end_ns"] - s["start_ns"]) / 1e6 for s in spans if s["name"] == name]


def evaluation_per_run_ms(spans: list) -> list:
    """Evaluation time of each (trial, k) run: the evaluation spans that
    follow one solver span. A run whose solve raised has no evaluation."""
    per_run = []
    for s in sorted(spans, key=lambda s: s["start_ns"]):
        layer = s["name"].split(".", 1)[0]
        if layer == "solvers":
            per_run.append(None)
        elif layer == "evaluation" and per_run:
            per_run[-1] = (per_run[-1] or 0.0) + (s["end_ns"] - s["start_ns"]) / 1e6
    return [ms for ms in per_run if ms is not None]
