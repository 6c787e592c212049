"""One benchmark child process: import the package, say ``ready``, run one sweep.

    python3 perfbench/worker.py probe
    python3 perfbench/worker.py sweep  OUTDIR SWEEP_ARGS...
    python3 perfbench/worker.py traced OUTDIR SWEEP_ARGS...

The package is imported from ``src/`` next to this directory, never from an
installed copy. The parent times set-up from spawning this process until the
``ready`` line. ``sweep`` then runs ``coreset-iht sweep`` in-process and
prints one JSON line: exit code, sweep wall time and peak resident memory.
``traced`` does the same with every call from ``cli`` into the other modules
wrapped in a span, then times single kernels on the trial-0 problem.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Batch fraction of the stochastic gradient timing (the ROADMAP's criterion-9 setting).
STOCHASTIC_BATCH_FRACTION = 0.2
# Each kernel timing repeats the call until this budget (s) or MICRO_MAX_REPS.
MICRO_BUDGET_S = 0.4
MICRO_MIN_REPS = 5
MICRO_MAX_REPS = 400


def import_cli():
    sys.path.insert(0, str(SRC))
    import coreset_iht
    from coreset_iht import cli

    if Path(coreset_iht.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"coreset_iht imported from {coreset_iht.__file__}, not {SRC}")
    return cli


def median_us(fn) -> float:
    """Median wall time of ``fn()`` in microseconds."""
    samples = []
    deadline = time.perf_counter() + MICRO_BUDGET_S
    while len(samples) < MICRO_MIN_REPS or (
            time.perf_counter() < deadline and len(samples) < MICRO_MAX_REPS):
        t0 = time.perf_counter_ns()
        fn()
        samples.append(time.perf_counter_ns() - t0)
    samples.sort()
    mid = len(samples) // 2
    if len(samples) % 2:
        return samples[mid] / 1e3
    return (samples[mid - 1] + samples[mid]) / 2e3


def kernel_timings(problem, k: int, weights) -> dict:
    """Single-call timings of the problem and solver kernels on one problem.

    ``weights`` is the solver's answer at ``k``, so the vectors have the
    sparsity the solver sees. Bytes are computed from array sizes: one
    gradient reads ``phi`` twice (``phi @ w`` and ``phi.T @ r``).
    """
    import numpy as np
    from coreset_iht import (gradient, line_search_step, momentum_coefficient, objective,
                             project_topk_excluding, project_topk_nonneg, restrict,
                             stochastic_gradient)

    w = weights.w
    support = weights.support
    grad = gradient(problem, w)
    expand = project_topk_excluding(grad, k, support)
    direction = restrict(grad, np.union1d(expand, support))
    w_prev = project_topk_nonneg(-grad, k).w
    rng = np.random.default_rng(0)
    out = {
        "gradient_us": median_us(lambda: gradient(problem, w)),
        "objective_us": median_us(lambda: objective(problem, w)),
        "topk_us": median_us(lambda: project_topk_nonneg(-grad, k)),
        "topk_excluding_us": median_us(lambda: project_topk_excluding(grad, k, support)),
        "line_search_us": median_us(lambda: line_search_step(problem, direction)),
        "momentum_us": median_us(lambda: momentum_coefficient(problem, w, w_prev)),
        "stochastic_gradient_us": median_us(
            lambda: stochastic_gradient(problem, w, STOCHASTIC_BATCH_FRACTION, rng)),
        "s_dim": problem.s_dim,
        "n": problem.n,
        "k": k,
    }
    out["gradient_bytes"] = 2 * problem.phi.nbytes
    return out


def run_sweep(cli, outdir: str, sweep_args: list, tracer=None) -> dict:
    argv = ["sweep", *sweep_args, "--outdir", outdir]
    captured = io.StringIO()
    t0 = time.perf_counter_ns()
    if tracer is None:
        with contextlib.redirect_stdout(captured):
            rc = cli.main(argv)
    else:
        with contextlib.redirect_stdout(captured), tracer.span(tracing.ROOT_SPAN):
            rc = cli.main(argv)
    sweep_ns = time.perf_counter_ns() - t0
    return {"rc": rc, "sweep_s": sweep_ns / 1e9,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def main(argv: list) -> int:
    mode = argv[0]
    cli = import_cli()
    print("ready", flush=True)
    if mode == "probe":
        return 0
    outdir, sweep_args = argv[1], argv[2:]
    if mode == "sweep":
        result = run_sweep(cli, outdir, sweep_args)
    elif mode == "traced":
        tracer = tracing.Tracer()
        tracing.instrument(cli, tracer)
        result = run_sweep(cli, outdir, sweep_args, tracer)
        result["spans"] = tracer.spans
        result["solves"] = tracer.solves
        if tracer.first_solve is not None:
            result["kernels"] = kernel_timings(*tracer.first_solve)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
