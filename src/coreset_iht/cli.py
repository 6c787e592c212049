"""Experiment driver: data generation, coreset construction, sweeps, theory checks.

Outputs are data files (per-run JSON, aggregate CSV, report JSON), not plots.
Every output embeds the full configuration and seed that produced it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .baselines import uniform_coreset
from .evaluation import (
    EnumerationBudgetError,
    brute_force_optimum,
    check_iterative_invariant,
    coreset_kl,
    estimate_rip,
    make_planted_problem,
    map_l2_distance,
)
from .models import (
    BayesianModel,
    Dataset,
    GaussianDist,
    build_projection,
    full_data_posterior,
    load_csv_dataset,
    posterior_approximation,
    save_csv_dataset,
    synth_gaussian_dataset,
    synth_glm_dataset,
    synth_radial_basis_model,
)
from .problem import WeightVector
from .solvers import (
    SolverConfig,
    solve_aiht,
    solve_aiht_batched,
    solve_aiht_debias,
    solve_vanilla_iht,
)

EXPERIMENTS = ("gaussian", "radial_basis", "logistic", "poisson", "csv")
SOLVERS = ("vanilla", "aiht", "aiht_debias", "aiht_batched", "uniform")

CSV_COLUMNS = ("experiment", "solver", "k", "trial_count",
               "fkl_med", "fkl_q25", "fkl_q75",
               "rkl_med", "rkl_q25", "rkl_q75",
               "skl_med", "map_l2_med", "time_ns_med")


@dataclass
class ExperimentConfig:
    """One experiment: model family, solver, sparsity sweep, reporting knobs."""

    experiment: str = "gaussian"
    solver: str = "aiht"
    k_list: list = field(default_factory=lambda: [10])
    trials: int = 1
    seed: int = 0
    s_count: int = 500
    outdir: str = "runs"
    dim: int = 2
    n_data: int = 100
    basis_scales: list = field(default_factory=lambda: [0.2, 0.4, 0.8, 1.2, 1.6, 2.0])
    per_scale_count: int = 50
    csv_path: str = ""
    csv_kind: str = ""
    max_iters: int = 0            # 0 = solver default
    rel_tol: float = 1e-5
    momentum_formula: str = "exact_argmin"
    batch_fraction: float = 0.2
    vanilla_step: float = 0.0     # required > 0 only for the vanilla solver
    map_l2: bool = True
    record_timing: bool = True
    workers: int = 1
    rip_budget: int = 10 ** 6
    near_orthonormal: bool = False

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"experiment must be one of {EXPERIMENTS}")
        if self.solver not in SOLVERS:
            raise ValueError(f"solver must be one of {SOLVERS}")
        self.k_list = [int(k) for k in self.k_list]
        if not self.k_list or any(k < 1 for k in self.k_list):
            raise ValueError("k_list must contain positive sparsity levels")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.experiment == "csv" and not self.csv_path:
            raise ValueError("csv experiment needs csv_path")
        _solver_config(self, self.k_list[0], 0)  # rejects bad solver settings before any run

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**payload)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))


def _model_for_trial(cfg: ExperimentConfig, trial: int) -> BayesianModel:
    seed = (cfg.seed, trial, 0)
    if cfg.experiment == "gaussian":
        model, _ = synth_gaussian_dataset(cfg.dim, cfg.n_data, seed)
        return model
    if cfg.experiment == "radial_basis":
        return synth_radial_basis_model(cfg.n_data, cfg.basis_scales,
                                        cfg.per_scale_count, seed)
    if cfg.experiment in ("logistic", "poisson"):
        return synth_glm_dataset(cfg.experiment, cfg.n_data, cfg.dim, seed)
    dataset = load_csv_dataset(cfg.csv_path, cfg.csv_kind)
    return _model_from_dataset(dataset, cfg.csv_kind)


def _model_from_dataset(dataset: Dataset, kind: str) -> BayesianModel:
    if kind in ("logistic", "poisson"):
        prior = GaussianDist(np.zeros(dataset.d + 1), np.eye(dataset.d + 1))
        return BayesianModel(kind=kind, dataset=dataset, prior=prior)
    prior = GaussianDist(np.zeros(dataset.d), np.eye(dataset.d))
    if kind == "linear_regression":
        noise_var = float(np.var(dataset.y)) or 1.0
        return BayesianModel(kind=kind, dataset=dataset, prior=prior, noise_var=noise_var)
    return BayesianModel(kind="gaussian_mean", dataset=dataset, prior=prior)


def _solver_config(cfg: ExperimentConfig, k: int, trial: int) -> SolverConfig:
    return SolverConfig(
        k=k,
        max_iters=cfg.max_iters or None,
        rel_tol=cfg.rel_tol,
        momentum_formula=cfg.momentum_formula,
        batch_fraction=cfg.batch_fraction,
        rng_seed=cfg.seed + trial,
    )


def _construct_coreset(cfg: ExperimentConfig, problem, n: int, k: int, trial: int):
    """Returns (weights, trace-or-None, construction time in ns); ``n`` is the
    number of data points."""
    if cfg.solver == "uniform":
        t0 = time.perf_counter_ns()
        weights = uniform_coreset(n, k, (cfg.seed, trial, 2, k))
        return weights, None, time.perf_counter_ns() - t0
    scfg = _solver_config(cfg, k, trial)
    t0 = time.perf_counter_ns()
    if cfg.solver == "vanilla":
        if not cfg.vanilla_step > 0:
            raise ValueError("vanilla solver needs vanilla_step > 0")
        weights, trace = solve_vanilla_iht(problem, scfg, cfg.vanilla_step)
    elif cfg.solver == "aiht":
        weights, trace = solve_aiht(problem, scfg)
    elif cfg.solver == "aiht_debias":
        weights, trace = solve_aiht_debias(problem, scfg)
    else:
        weights, trace = solve_aiht_batched(problem, scfg)
    elapsed = time.perf_counter_ns() - t0
    return weights, trace, elapsed


def _metrics(model: BayesianModel, pi_hat: GaussianDist, weights, map_l2: bool) -> dict:
    """KL divergences (and MAP distance) between the full-data posterior
    pi-hat and the coreset posterior, which is fitted here once."""
    coreset = posterior_approximation(model, weights)
    fkl = coreset_kl(pi_hat, coreset, "forward")
    rkl = coreset_kl(pi_hat, coreset, "reverse")
    metrics = {"fkl": fkl, "rkl": rkl, "skl": fkl + rkl}
    if map_l2:
        metrics["map_l2"] = map_l2_distance(pi_hat, coreset)
    return metrics


def _run_trial(cfg: ExperimentConfig, trial: int) -> list:
    """All k values for one trial; returns a list of run dicts."""
    runs = []
    model = _model_for_trial(cfg, trial)
    n = model.dataset.n
    bad = [k for k in cfg.k_list if k > n]
    if bad:
        raise ValueError(f"k values {bad} exceed data count {n}")
    pi_hat = full_data_posterior(model)
    problem = None
    if cfg.solver != "uniform":
        projection = build_projection(model, pi_hat, cfg.s_count, (cfg.seed, trial, 1))
        problem = projection.to_problem()
    for k in cfg.k_list:
        run = {
            "config": cfg.to_dict(),
            "experiment": cfg.experiment,
            "solver": cfg.solver,
            "trial": trial,
            "k": k,
            "seed": cfg.seed + trial,
        }
        try:
            weights, trace, elapsed = _construct_coreset(cfg, problem, n, k, trial)
            if not cfg.record_timing:
                elapsed = 0
                trace = trace.with_zeroed_time() if trace is not None else None
            run["time_ns"] = elapsed
            run["metrics"] = _metrics(model, pi_hat, weights, cfg.map_l2)
            run["support"] = [int(i) for i in weights.support]
            run["values"] = [float(v) for v in weights.w[weights.support]]
            if trace is not None:
                run["termination"] = trace.termination.value
                run["objective"] = trace.records[-1].f if trace.records else None
                run["trace"] = json.loads(trace.to_json())
        except Exception as exc:  # per-run failures recorded, sweep continues
            run["error"] = f"{type(exc).__name__}: {exc}"
        runs.append(run)
    return runs


def _aggregate(cfg: ExperimentConfig, runs: list) -> str:
    """Build the aggregate CSV text: medians and quartiles per k."""
    lines = [f"# config={cfg.to_json()}", ",".join(CSV_COLUMNS)]
    for k in cfg.k_list:
        good = [r for r in runs if r["k"] == k and "error" not in r]
        if good:
            fkl = [r["metrics"]["fkl"] for r in good]
            rkl = [r["metrics"]["rkl"] for r in good]
            skl = [r["metrics"]["skl"] for r in good]
            times = [r["time_ns"] for r in good]
            cells = [cfg.experiment, cfg.solver, str(k), str(len(good)),
                     repr(float(np.median(fkl))), repr(float(np.percentile(fkl, 25))),
                     repr(float(np.percentile(fkl, 75))),
                     repr(float(np.median(rkl))), repr(float(np.percentile(rkl, 25))),
                     repr(float(np.percentile(rkl, 75))),
                     repr(float(np.median(skl)))]
            if cfg.map_l2:
                map_l2 = [r["metrics"]["map_l2"] for r in good]
                cells.append(repr(float(np.median(map_l2))))
            else:
                cells.append("")
            cells.append(repr(float(np.median(times))))
        else:
            cells = [cfg.experiment, cfg.solver, str(k), "0"] + [""] * 9
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@dataclass
class SweepResult:
    csv_path: Path
    run_paths: list
    failures: int


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Construct and evaluate coresets for every (trial, k); write reports.

    Per-run JSON files and one aggregate CSV (median and quartile columns
    per k) land in ``cfg.outdir``. Trials run in parallel when
    ``cfg.workers`` > 1; per-trial seeds derive from the base seed plus the
    trial index, and aggregation is deterministic.
    """
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            per_trial = list(pool.map(lambda t: _run_trial(cfg, t), range(cfg.trials)))
    else:
        per_trial = [_run_trial(cfg, t) for t in range(cfg.trials)]
    runs = [run for trial_runs in per_trial for run in trial_runs]

    run_paths = []
    failures = 0
    for run in runs:
        name = f"run_{cfg.solver}_k{run['k']}_t{run['trial']}.json"
        path = outdir / name
        path.write_text(json.dumps(run, sort_keys=True, indent=1) + "\n",
                        encoding="utf-8")
        run_paths.append(path)
        if "error" in run:
            failures += 1
    csv_path = outdir / f"aggregate_{cfg.experiment}_{cfg.solver}.csv"
    csv_path.write_text(_aggregate(cfg, runs), encoding="utf-8")
    return SweepResult(csv_path=csv_path, run_paths=run_paths, failures=failures)


def run_theory_check(cfg: ExperimentConfig) -> Path:
    """Exhaustive isometry constants + brute-force optimum + invariant check.

    Builds a planted instance sized by (n_data, s_count, first k), then
    verifies the solver's per-iteration error bound against it. Raises
    ``EnumerationBudgetError`` when the support enumeration exceeds
    ``rip_budget``.
    """
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    k = cfg.k_list[0]
    problem, planted = make_planted_problem(
        cfg.n_data, cfg.s_count, k, cfg.seed, near_orthonormal=cfg.near_orthonormal)
    levels = sorted({min(m * k, problem.n) for m in (1, 2, 3, 4)})
    rip = estimate_rip(problem, levels, budget=cfg.rip_budget)
    w_star, f_star = brute_force_optimum(problem, k, budget=cfg.rip_budget)
    report = check_iterative_invariant(problem, _solver_config(cfg, k, 0), w_star, rip)
    payload = {
        "config": cfg.to_dict(),
        "seed": cfg.seed,
        "planted_support": [int(i) for i in planted.support],
        "brute_force_support": [int(i) for i in w_star.support],
        "brute_force_objective": f_star,
        "rip": json.loads(rip.to_json()),
        "report": json.loads(report.to_json()),
    }
    path = outdir / "theory_check.json"
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n",
                    encoding="utf-8")
    return path


def run_gen_data(cfg: ExperimentConfig) -> Path:
    """Write the trial-0 synthetic dataset as a CSV the loader reads back."""
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    model = _model_for_trial(cfg, 0)
    path = outdir / f"dataset_{cfg.experiment}_seed{cfg.seed}.csv"
    save_csv_dataset(path, model.dataset)
    return path


def run_build(cfg: ExperimentConfig) -> Path:
    """Construct one coreset (trial 0, first k) and write weights + trace."""
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    runs = _run_trial(_single_k(cfg), 0)
    run = runs[0]
    if "error" in run:
        raise RuntimeError(run["error"])
    path = outdir / f"build_{cfg.solver}_k{run['k']}.json"
    path.write_text(json.dumps(run, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return path


def _single_k(cfg: ExperimentConfig) -> ExperimentConfig:
    payload = cfg.to_dict()
    payload["k_list"] = [cfg.k_list[0]]
    payload["trials"] = 1
    return ExperimentConfig.from_dict(payload)


def run_evaluate(weights_path, outdir=None) -> dict:
    """Re-evaluate a build output: rebuild the model, recompute the metrics.

    Raises ``ValueError`` naming the file when it holds no coreset weights, as
    the run JSON of a failed sweep run does, or weights that do not fit the
    rebuilt model.
    """
    payload = json.loads(Path(weights_path).read_text(encoding="utf-8"))
    if "error" in payload:
        raise ValueError(f"{weights_path} records a failed run: {payload['error']}")
    missing = [key for key in ("config", "trial", "seed", "k", "support", "values")
               if key not in payload]
    if missing:
        raise ValueError(f"{weights_path} is not a build output: it lacks {', '.join(missing)}")
    support, values = payload["support"], payload["values"]
    if not (isinstance(support, list) and all(type(i) is int for i in support)):
        raise ValueError(f"{weights_path}: support must be a list of integer indices")
    if not isinstance(values, list) or len(values) != len(support):
        raise ValueError(f"{weights_path}: values must be a list as long as support")
    cfg = ExperimentConfig.from_dict(payload["config"])
    model = _model_for_trial(cfg, payload["trial"])
    n = model.dataset.n
    if not all(0 <= i < n for i in support):
        raise ValueError(f"{weights_path}: support index out of range [0, {n})")
    if len(set(support)) != len(support):
        raise ValueError(f"{weights_path}: support repeats an index")
    w = np.zeros(n)
    w[support] = values
    metrics = _metrics(model, full_data_posterior(model), WeightVector(w), map_l2=True)
    result = {"config": cfg.to_dict(), "seed": payload["seed"],
              "k": payload["k"], "metrics": metrics}
    if outdir is not None:
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / (Path(weights_path).stem + "_metrics.json")
        path.write_text(json.dumps(result, sort_keys=True, indent=1) + "\n",
                        encoding="utf-8")
    return result


# -- argument parsing --------------------------------------------------------

def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its fields")
    parser.add_argument("--experiment", choices=EXPERIMENTS)
    parser.add_argument("--solver", choices=SOLVERS)
    parser.add_argument("--k", help="comma-separated sparsity levels")
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--s-count", type=int, dest="s_count")
    parser.add_argument("--dim", type=int)
    parser.add_argument("--n-data", type=int, dest="n_data")
    parser.add_argument("--outdir")
    parser.add_argument("--rel-tol", type=float, dest="rel_tol")
    parser.add_argument("--max-iters", type=int, dest="max_iters")
    parser.add_argument("--momentum", choices=("exact_argmin", "halved_argmin"),
                        dest="momentum_formula")
    parser.add_argument("--batch-fraction", type=float, dest="batch_fraction")
    parser.add_argument("--step", type=float, dest="vanilla_step")
    parser.add_argument("--csv-path", dest="csv_path")
    parser.add_argument("--csv-kind", dest="csv_kind")
    parser.add_argument("--workers", type=int)
    parser.add_argument("--rip-budget", type=int, dest="rip_budget")
    parser.add_argument("--near-orthonormal", action="store_const", const=True,
                        dest="near_orthonormal")
    parser.add_argument("--no-map-l2", action="store_const", const=False,
                        dest="map_l2")
    parser.add_argument("--no-timing", action="store_const", const=False,
                        dest="record_timing")


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Precedence: flags > config file > dataclass defaults."""
    payload = {}
    if args.config:
        payload.update(json.loads(Path(args.config).read_text(encoding="utf-8")))
    for f in fields(ExperimentConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            payload[f.name] = value
    if getattr(args, "k", None):
        payload["k_list"] = [int(v) for v in str(args.k).split(",") if v]
    return ExperimentConfig.from_dict(payload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coreset-iht",
        description="Bayesian coreset construction by accelerated iterative hard thresholding")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("gen-data", "write a synthetic dataset CSV"),
        ("build", "construct one coreset and write weights + trace"),
        ("sweep", "run the (trial x k) sweep and write per-run JSON + aggregate CSV"),
        ("theory-check", "verify the solver error bound on a small planted instance"),
        ("evaluate", "recompute metrics for a build output"),
    ):
        p = sub.add_parser(name, help=text)
        _add_common_flags(p)
        if name == "evaluate":
            p.add_argument("--weights", required=True, help="build output JSON")

    args = parser.parse_args(argv)
    try:
        if args.command == "evaluate":
            cfg_outdir = getattr(args, "outdir", None)
            result = run_evaluate(args.weights, outdir=cfg_outdir)
            print(json.dumps(result["metrics"], sort_keys=True))
            return 0
        cfg = config_from_args(args)
        if args.command == "gen-data":
            print(run_gen_data(cfg))
            return 0
        if args.command == "build":
            print(run_build(cfg))
            return 0
        if args.command == "theory-check":
            path = run_theory_check(cfg)
            payload = json.loads(path.read_text(encoding="utf-8"))
            print(path)
            return 0 if payload["report"]["all_satisfied"] else 1
        result = run_sweep(cfg)
        print(result.csv_path)
        if result.failures:
            print(f"{result.failures} run(s) failed", file=sys.stderr)
            return 1
        return 0
    except EnumerationBudgetError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
