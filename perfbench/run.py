"""Benchmark of the ``coreset-iht sweep`` path.

    python3 perfbench/run.py --workload gaussian-paper --seed 0 --seconds 35 --trace 0

``--trace 0`` runs the sweep again and again, each time in a fresh process
with the environment it was started with (no BLAS thread override), for
``--seconds`` seconds, checks every output, and prints the end-to-end
metrics. ``--trace 1`` runs, with timing off, three rounds of an untraced
sweep, a traced sweep and an untraced sweep with ``OPENBLAS_NUM_THREADS=1``
(the single-threaded reference), checks that every traced and untraced
output is byte-identical, and prints the per-layer metrics. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

The package is run from ``src/`` of the checkout this file sits in. Sweep
outputs and a full record of each run (environment, samples, quartiles) go
to ``.perfbench_work/<workload>/``. Exit code 0 when every check passes, 1
when an output check fails, 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
WORKDIR = ROOT / ".perfbench_work"


@dataclass(frozen=True)
class Workload:
    sweep_args: tuple
    trials: int
    k_list: tuple
    n_data: int


def _workload(args: tuple, trials: int) -> Workload:
    k_list = tuple(int(k) for k in args[args.index("--k") + 1].split(","))
    return Workload(args, trials, k_list, int(args[args.index("--n-data") + 1]))


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "gaussian-paper": _workload(
        ("--experiment", "gaussian", "--dim", "20", "--n-data", "100",
         "--s-count", "2000", "--k", "10,20,30,50"), trials=30),
    "logistic-wide": _workload(
        ("--experiment", "logistic", "--dim", "2", "--n-data", "5000",
         "--s-count", "500", "--k", "20,100"), trials=1),
    "radial-basis": _workload(
        ("--experiment", "radial_basis", "--n-data", "1000",
         "--s-count", "500", "--k", "10,30,60"), trials=2),
}
SOLVER = tracing.SOLVER

END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "build_ms_p50": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "models.full_data_posterior_ms": "ms",
    "models.build_projection_ms": "ms",
    "models.phi_mb": "MB",
    "problem.to_problem_ms": "ms",
    "problem.gradient_us": "us",
    "problem.gradient_gbs_computed": "GB/s",
    "problem.objective_us": "us",
    "problem.topk_us": "us",
    "problem.topk_excluding_us": "us",
    "solvers.iter_us_p50": "us",
    "solvers.iter_per_gradient": "ratio",
    "solvers.line_search_us": "us",
    "solvers.momentum_us": "us",
    "solvers.iters_p50": "count",
    "solvers.max_iters_frac": "fraction",
    "solvers.stochastic_gradient_us": "us",
    "solvers.obj_rel_med": "ratio",
    "evaluation.run_ms": "ms",
    "evaluation.coreset_kl_ms": "ms",
    "evaluation.map_l2_ms": "ms",
    "evaluation.skl_med": "nats",
    "cli.self_ms": "ms",
    "cli.output_bytes": "bytes",
    "cli.fail_frac": "fraction",
    "ref.sweep_s_blas1": "s",
    "trace.overhead_s": "s",
}

# Set-up is timed this many times in separate processes before the sweeps,
# and once more in each sweep's own process; setup_s is the median.
SETUP_PROBES = 5
# Fewest sweeps a --trace 0 run makes, whatever --seconds says.
MIN_REPS = 3
# One invocation must end within this many seconds; children are killed at it.
RUN_LIMIT_S = 170
# A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10
# Spawned sweeps inherit the environment; this one pins BLAS to one thread.
BLAS1_ENV = {"OPENBLAS_NUM_THREADS": "1"}
# --trace 1 alternates this many untraced / traced / BLAS1 rounds and reports
# medians, so drift of the machine hits all three kinds of sweep alike.
REF_ROUNDS = 3


class BenchError(RuntimeError):
    """The benchmark could not run the program."""


def sweep_args(workload: Workload, seed: int, timing: bool = True) -> list:
    args = [*workload.sweep_args, "--solver", SOLVER, "--trials", str(workload.trials),
            "--seed", str(seed)]
    return args if timing else args + ["--no-timing"]


def spawn(deadline: float, mode: str, outdir: Path = None, args=(), extra_env=None):
    """Run one worker, killed at ``deadline`` (time.monotonic()); return
    (set-up seconds, its JSON result or None)."""
    cmd = [sys.executable, str(WORKER), mode]
    if outdir is not None:
        shutil.rmtree(outdir, ignore_errors=True)
        cmd += [str(outdir), *args]
    env = dict(os.environ, **(extra_env or {}))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {mode} still running at the time limit") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {mode} exited with {proc.returncode} after {first!r}")
    return setup_s, (json.loads(rest.splitlines()[-1]) if mode != "probe" else None)


# -- statistics --------------------------------------------------------------

def summary(values: list) -> dict:
    """Median, quartiles and count of a sample."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q25, _, q75 = statistics.quantiles(values, n=4)
        q50 = median(values)
    else:
        q25 = q50 = q75 = values[0]
    return {"median": q50, "q25": q25, "q75": q75, "n": len(values)}


def tail(values: list):
    """The highest whole percentile with at least TAIL_BEYOND samples above
    it, or None when no percentile above the median qualifies."""
    n = len(values)
    pct = math.floor(100 * (1 - TAIL_BEYOND / n)) if n else 0
    if pct <= 50:
        return None
    ordered = sorted(values)
    return {"percentile": pct, "value": ordered[math.ceil(pct / 100 * n) - 1], "n": n}


# -- environment record ------------------------------------------------------

def blas_info() -> list:
    """Version string and thread count of each OpenBLAS that numpy and scipy load."""
    import numpy
    import scipy

    found = []
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            entry = {"package": pkg.__name__, "library": Path(path).name}
            for key, names, restype in (
                    ("threads", ("scipy_openblas_get_num_threads64_",
                                 "scipy_openblas_get_num_threads", "openblas_get_num_threads"),
                     ctypes.c_int),
                    ("config", ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                                "openblas_get_config"), ctypes.c_char_p)):
                for name in names:
                    if hasattr(lib, name):
                        fn = getattr(lib, name)
                        fn.restype = restype
                        value = fn()
                        entry[key] = value.decode() if isinstance(value, bytes) else value
                        break
            found.append(entry)
    return found


def git_sha():
    """Commit of the checkout; None outside a git repository. The ceiling
    keeps git from reporting a repository that merely encloses the checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                 "MKL_NUM_THREADS") if k in os.environ},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "machine_settings_changed": False,
        "note": ("Measured with per-process means only (environment, repeats); no machine "
                 "setting was changed. No DRAM-bandwidth figure: the largest array (phi, "
                 "20 MB on logistic-wide) is far below 4x a 300 MiB shared L3 (1.2 GB)."),
    }


# -- trace 0: end-to-end -----------------------------------------------------

def run_end_to_end(workload: Workload, seed: int, seconds: float, workdir: Path,
                   deadline: float) -> dict:
    setups = [spawn(deadline, "probe")[0] for _ in range(SETUP_PROBES)]
    args = sweep_args(workload, seed)
    reps, rep_walls = [], []
    start = time.monotonic()
    # Start another sweep only if a typical one still fits in --seconds.
    while len(reps) < MIN_REPS or (
            time.monotonic() + median(rep_walls) <= min(start + seconds, deadline)):
        t0 = time.monotonic()
        outdir = workdir / f"sweep{len(reps)}"
        setup_s, result = spawn(deadline, "sweep", outdir, args)
        rep_walls.append(time.monotonic() - t0)
        setups.append(setup_s)
        result["outdir"] = outdir
        result["runs"] = checks.load_runs(outdir)
        reps.append(result)

    problems = []
    first = reps[0]["runs"]
    for i, rep in enumerate(reps):
        runs = rep["runs"]
        problems += checks.check_runs(runs, workload.trials, workload.k_list, workload.n_data)
        csv_path = rep["outdir"] / f"aggregate_{runs[0]['experiment']}_{SOLVER}.csv"
        problems += checks.check_aggregate(csv_path, runs, workload.k_list)
        if checks.results_of(runs) != checks.results_of(first):
            problems.append(f"sweep {i} results differ from sweep 0 on the same inputs")
        failures = sum("error" in r for r in runs)
        if (rep["rc"] == 0) != (failures == 0):
            problems.append(f"sweep {i} exit code {rep['rc']} with {failures} failed runs")

    good = [r for r in first if "error" not in r]
    build_ms = [r["time_ns"] / 1e6 for rep in reps for r in rep["runs"] if "time_ns" in r]
    attempted = sum(len(rep["runs"]) for rep in reps)
    failed = sum("error" in r for rep in reps for r in rep["runs"])
    samples = {
        "setup_s": setups,
        "sweep_s": [rep["sweep_s"] for rep in reps],
        "build_ms_p50": build_ms,
        "peak_rss_mb": [rep["peak_rss_kb"] * 1024 / 1e6 for rep in reps],
    }
    stats = {name: summary(values) for name, values in samples.items()}
    metrics = {name: stats[name]["median"] for name in END_TO_END}
    report = {
        "build_ms_tail": tail(build_ms),
        "fail_frac": failed / attempted,
        "skl_med": median([r["metrics"]["skl"] for r in good]) if good else None,
    }
    return {"metrics": metrics, "stats": stats, "report": report, "problems": problems,
            "attempted": attempted, "failed": failed}


# -- trace 1: per layer ------------------------------------------------------

def per_layer_metrics(traced: list, plain: list, blas1: list, runs: list,
                      outdir: Path) -> dict:
    """Per-layer metrics from REF_ROUNDS traced sweeps and their untraced
    and BLAS1 partners; spans and solves are pooled over the traced sweeps."""
    spans = [s for t in traced for s in t["spans"]]
    solves = [s for t in traced for s in t["solves"]]
    kernels = {key: median(t["kernels"][key] for t in traced) for key in traced[0]["kernels"]}
    iter_us = [ns / 1e3 for s in solves for ns in s["iter_ns"]]
    good = [r for r in runs if "error" not in r]
    eval_runs = [ms for t in traced for ms in tracing.evaluation_per_run_ms(t["spans"])]
    cli_self_ms = []
    for t in traced:
        root = next(s for s in t["spans"] if s["parent"] is None)
        cli_self_ms.append(tracing.self_ns(root, tracing.children_of(t["spans"], root["id"])) / 1e6)
    iter_us_p50 = median(iter_us)
    return {
        "models.full_data_posterior_ms": median(
            tracing.durations_ms(spans, "models.full_data_posterior")),
        "models.build_projection_ms": median(
            tracing.durations_ms(spans, "models.build_projection")),
        "models.phi_mb": kernels["s_dim"] * kernels["n"] * 8 / 1e6,
        "problem.to_problem_ms": median(tracing.durations_ms(spans, tracing.TO_PROBLEM_SPAN)),
        "problem.gradient_us": kernels["gradient_us"],
        "problem.gradient_gbs_computed": kernels["gradient_bytes"] / kernels["gradient_us"] / 1e3,
        "problem.objective_us": kernels["objective_us"],
        "problem.topk_us": kernels["topk_us"],
        "problem.topk_excluding_us": kernels["topk_excluding_us"],
        "solvers.iter_us_p50": iter_us_p50,
        "solvers.iter_per_gradient": iter_us_p50 / kernels["gradient_us"],
        "solvers.line_search_us": kernels["line_search_us"],
        "solvers.momentum_us": kernels["momentum_us"],
        "solvers.iters_p50": median([s["iters"] for s in solves]),
        "solvers.max_iters_frac": sum(s["termination"] == "max_iters" for s in solves) / len(solves),
        "solvers.stochastic_gradient_us": kernels["stochastic_gradient_us"],
        "solvers.obj_rel_med": median([s["obj_rel"] for s in solves]),
        "evaluation.run_ms": median(eval_runs) if eval_runs else 0.0,
        "evaluation.coreset_kl_ms": median(tracing.durations_ms(spans, "evaluation.coreset_kl")),
        "evaluation.map_l2_ms": median(tracing.durations_ms(spans, "evaluation.map_l2_distance")),
        "evaluation.skl_med": median([r["metrics"]["skl"] for r in good]) if good else 0.0,
        "cli.self_ms": median(cli_self_ms),
        "cli.output_bytes": sum(p.stat().st_size for p in outdir.iterdir()),
        "cli.fail_frac": (len(runs) - len(good)) / len(runs),
        "ref.sweep_s_blas1": median(b["sweep_s"] for b in blas1),
        "trace.overhead_s": median(t["sweep_s"] - p["sweep_s"] for t, p in zip(traced, plain)),
    }


def run_per_layer(workload: Workload, seed: int, workdir: Path, deadline: float) -> dict:
    args = sweep_args(workload, seed, timing=False)
    results = {"plain": [], "traced": [], "blas1": []}
    # The outputs embed the output directory, so every sweep writes to the
    # same one and is moved aside afterwards.
    for i in range(REF_ROUNDS):
        for name, mode, env in (("plain", "sweep", None), ("traced", "traced", None),
                                ("blas1", "sweep", BLAS1_ENV)):
            _, result = spawn(deadline, mode, workdir / "out", args, extra_env=env)
            results[name].append(result)
            (workdir / "out").rename(workdir / f"{name}{i}")
    plain, traced, blas1 = results["plain"], results["traced"], results["blas1"]
    (workdir / "spans.json").write_text(json.dumps(traced[0]["spans"]) + "\n", encoding="utf-8")

    runs = checks.load_runs(workdir / "traced0")
    problems = checks.check_runs(runs, workload.trials, workload.k_list, workload.n_data)
    csv_path = workdir / "traced0" / f"aggregate_{runs[0]['experiment']}_{SOLVER}.csv"
    problems += checks.check_aggregate(csv_path, runs, workload.k_list)
    problems += checks.check_objectives(runs, traced[0]["solves"])
    for i in range(REF_ROUNDS):
        problems += tracing.check_spans(traced[i]["spans"])
        # Traced and untraced sweeps write the same bytes.
        for name in ("plain", "traced"):
            problems += checks.check_same_files(workdir / "plain0", workdir / f"{name}{i}")
    all_runs = [r for name in results for i in range(REF_ROUNDS)
                for r in checks.load_runs(workdir / f"{name}{i}")]
    out = {"metrics": {}, "problems": problems, "attempted": len(all_runs),
           "failed": sum("error" in r for r in all_runs)}
    if any("kernels" not in t for t in traced):
        problems.append("no solver call was traced")
    else:
        out["metrics"] = per_layer_metrics(traced, plain, blas1, runs, workdir / "traced0")
    return out


# -- entry point ---------------------------------------------------------------

def measure(name: str, workload: Workload, seed: int, seconds: float, trace: bool,
            workdir: Path) -> dict:
    """Run one benchmark invocation; return the full record."""
    deadline = time.monotonic() + RUN_LIMIT_S
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    if trace:
        out = run_per_layer(workload, seed, workdir, deadline)
        units = PER_LAYER
    else:
        out = run_end_to_end(workload, seed, seconds, workdir, deadline)
        units = END_TO_END
    out.update({"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                "units": units, "environment": environment()})
    return out


def result_line(record: dict) -> dict:
    return {
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": unit}
                    for name, unit in record["units"].items() if name in record["metrics"]},
    }


def print_report(record: dict) -> None:
    stats = record.get("stats", {})
    for name, unit in record["units"].items():
        value = record["metrics"].get(name)
        extra = ""
        if name in stats:
            s = stats[name]
            extra = f"  (q25 {s['q25']:.6g}, q75 {s['q75']:.6g}, n {s['n']})"
        print(f"{name:32s} {value!r:>24} {unit}{extra}")
    for name, value in record.get("report", {}).items():
        print(f"{name:32s} {json.dumps(value)}")
    env = record["environment"]
    print(f"environment: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, git {env['git_sha']}, blas "
          + "; ".join(f"{b['package']} {b.get('config', '?')} threads {b.get('threads', '?')}"
                      for b in env["blas"]))
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "coreset_iht" / "__init__.py").is_file():
        print(f"error: no package sources under {SRC}", file=sys.stderr)
        return 2
    workdir = WORKDIR / args.workload
    try:
        record = measure(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    (workdir / "record.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    print_report(record)
    line = result_line(record)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
