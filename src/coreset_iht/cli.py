"""Experiment driver: data generation, coreset construction, sweeps, theory checks.

Outputs are data files (per-run JSON, aggregate CSV, report JSON), not plots.
Every output embeds its seed and the configuration fields it was made
from: those its subcommand reads, as listed in ``_FLAGS``, less those that
only another experiment or solver reads, as listed in ``EXPERIMENTS`` and
``SOLVERS``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .baselines import uniform_coreset
from .evaluation import (
    DEFAULT_ENUMERATION_BUDGET,
    EnumerationBudgetError,
    NegativeKlError,
    brute_force_optimum,
    check_iterative_invariant,
    coreset_kl,
    estimate_rip,
    make_planted_problem,
    map_l2_distance,
)
from .models import (
    MODEL_KINDS,
    BayesianModel,
    CurvatureError,
    GaussianDist,
    NewtonConvergenceError,
    build_projection,
    full_data_posterior,
    load_csv_dataset,
    posterior_approximation,
    save_csv_dataset,
    standard_model,
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

# Each experiment and each solver, with those of the config fields its code
# reads that not every choice reads. A field no row names is read whatever
# the choice. A solver that reads s_count solves on a projection; one that
# does not (uniform) builds none.
EXPERIMENTS = {
    "gaussian": frozenset({"dim", "n_data"}),
    "radial_basis": frozenset({"n_data"}),
    "logistic": frozenset({"dim", "n_data"}),
    "poisson": frozenset({"dim", "n_data"}),
    "csv": frozenset({"csv_path", "csv_kind"}),
}
_PROJECTION_FIELDS = frozenset({"s_count", "max_iters", "rel_tol"})
SOLVERS = {
    "vanilla": _PROJECTION_FIELDS | {"vanilla_step"},
    "aiht": _PROJECTION_FIELDS,
    "aiht_debias": _PROJECTION_FIELDS,
    "aiht_batched": _PROJECTION_FIELDS | {"batch_fraction"},
    "uniform": frozenset(),
}

CSV_COLUMNS = ("experiment", "solver", "k", "trial_count",
               "fkl_med", "fkl_q25", "fkl_q75",
               "rkl_med", "rkl_q25", "rkl_q75",
               "skl_med", "map_l2_med", "time_ns_med")


# The JSON values each ExperimentConfig annotation takes; a bool is not an int.
_JSON_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,)}


def _has_json_type(value, annotation: str) -> bool:
    if annotation.startswith("list["):
        return type(value) is list and all(_has_json_type(v, annotation[5:-1]) for v in value)
    return type(value) in _JSON_TYPES[annotation]


@dataclass
class ExperimentConfig:
    """One experiment: model family, solver, sparsity sweep, reporting knobs."""

    experiment: str = "gaussian"
    solver: str = "aiht"
    k_list: list[int] = field(default_factory=lambda: [10])
    trials: int = 1
    seed: int = 0
    s_count: int = 500
    outdir: str = "runs"
    dim: int = 2
    n_data: int = 100
    csv_path: str = ""
    csv_kind: str = ""
    max_iters: int = 0            # 0 = solver default
    rel_tol: float = SolverConfig.rel_tol
    batch_fraction: float = 0.2
    vanilla_step: float = 0.0     # required > 0 only for the vanilla solver
    record_timing: bool = True
    rip_budget: int = DEFAULT_ENUMERATION_BUDGET
    near_orthonormal: bool = False

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"experiment must be one of {tuple(EXPERIMENTS)}")
        if self.solver not in SOLVERS:
            raise ValueError(f"solver must be one of {tuple(SOLVERS)}")
        if not self.k_list or any(k < 1 for k in self.k_list):
            raise ValueError("k_list must contain positive sparsity levels")
        if len(set(self.k_list)) != len(self.k_list):
            raise ValueError(f"k_list repeats a sparsity level: {self.k_list}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.n_data < 1:
            raise ValueError(f"n_data must be >= 1, got {self.n_data}")
        if self.s_count < 2:
            raise ValueError(f"s_count must be >= 2, got {self.s_count}")
        if self.experiment == "csv" and not self.csv_path:
            raise ValueError("csv experiment needs csv_path")
        if self.experiment == "csv" and self.csv_kind not in MODEL_KINDS:
            raise ValueError(f"csv experiment needs csv_kind in {MODEL_KINDS}, "
                             f"got {self.csv_kind!r}")
        _solver_config(self, self.k_list[0])  # rejects bad solver settings before any run
        if not 0 < self.batch_fraction <= 1:
            raise ValueError(f"batch_fraction must be in (0, 1], got {self.batch_fraction}")
        if self.solver == "vanilla" and not 0 < self.vanilla_step < np.inf:
            raise ValueError("vanilla solver needs vanilla_step > 0 and finite")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        """Config from parsed JSON; a value of the wrong JSON type is refused
        rather than converted."""
        if not isinstance(payload, dict):
            raise ValueError(f"a config must be a JSON object, got {type(payload).__name__}")
        types = {f.name: f.type for f in fields(cls)}
        unknown = set(payload) - set(types)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        for name, value in payload.items():
            if not _has_json_type(value, types[name]):
                raise ValueError(f"config field {name} must be {types[name]}, got {value!r}")
        return cls(**payload)


def _model_for_trial(cfg: ExperimentConfig, trial: int) -> BayesianModel:
    seed = (cfg.seed, trial, 0)
    if cfg.experiment == "gaussian":
        return synth_gaussian_dataset(cfg.dim, cfg.n_data, seed)
    if cfg.experiment == "radial_basis":
        return synth_radial_basis_model(cfg.n_data, seed=seed)
    if cfg.experiment in ("logistic", "poisson"):
        return synth_glm_dataset(cfg.experiment, cfg.n_data, cfg.dim, seed)
    return standard_model(cfg.csv_kind, load_csv_dataset(cfg.csv_path))


def _solver_config(cfg: ExperimentConfig, k: int) -> SolverConfig:
    return SolverConfig(k=k, max_iters=cfg.max_iters or None, rel_tol=cfg.rel_tol)


def _construct_coreset(cfg: ExperimentConfig, problem, n: int, k: int, trial: int):
    """Returns (weights, trace-or-None, construction time in ns); ``n`` is the
    number of data points. With no ``problem`` the coreset is uniform."""
    if problem is None:
        t0 = time.perf_counter_ns()
        weights = uniform_coreset(n, k, (cfg.seed, trial, 2, k))
        return weights, None, time.perf_counter_ns() - t0
    scfg = _solver_config(cfg, k)
    t0 = time.perf_counter_ns()
    if cfg.solver == "vanilla":
        weights, trace = solve_vanilla_iht(problem, scfg, cfg.vanilla_step)
    elif cfg.solver == "aiht":
        weights, trace = solve_aiht(problem, scfg)
    elif cfg.solver == "aiht_debias":
        weights, trace = solve_aiht_debias(problem, scfg)
    else:
        weights, trace = solve_aiht_batched(problem, scfg, cfg.batch_fraction, cfg.seed + trial)
    elapsed = time.perf_counter_ns() - t0
    return weights, trace, elapsed


def _metrics(model: BayesianModel, pi_hat: GaussianDist, weights) -> dict:
    """KL divergences and MAP distance between the full-data posterior
    pi-hat and the coreset posterior, which is fitted here once."""
    coreset = posterior_approximation(model, weights)
    fkl = coreset_kl(pi_hat, coreset, "forward")
    rkl = coreset_kl(pi_hat, coreset, "reverse")
    return {"fkl": fkl, "rkl": rkl, "skl": fkl + rkl,
            "map_l2": map_l2_distance(pi_hat, coreset)}


def _run_trial(cfg: ExperimentConfig, trial: int, config: dict) -> list:
    """All k values for one trial; returns a list of run dicts, each
    recording ``config``."""
    runs = []
    model = _model_for_trial(cfg, trial)
    n = model.dataset.n
    bad = [k for k in cfg.k_list if k > n]
    if bad:
        raise ValueError(f"k values {bad} exceed data count {n}")
    pi_hat = full_data_posterior(model)
    problem = None
    if "s_count" in SOLVERS[cfg.solver]:
        problem = build_projection(model, pi_hat, cfg.s_count, (cfg.seed, trial, 1)).to_problem()
    for k in cfg.k_list:
        run = {
            "config": config,
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
            run["metrics"] = _metrics(model, pi_hat, weights)
            run["support"] = [int(i) for i in weights.support]
            run["values"] = [float(v) for v in weights.w[weights.support]]
            if trace is not None:
                run["termination"] = trace.termination.value
                run["objective"] = trace.records[-1].f
                run["trace"] = trace.to_dict()
        except Exception as exc:  # per-run failures recorded, sweep continues
            run["error"] = f"{type(exc).__name__}: {exc}"
        runs.append(run)
    return runs


def _quantiles(values) -> tuple:
    """(median, 25th, 75th percentile) of ``values``, bit for bit what
    np.median and np.percentile's linear rule give, without the numpy.ma
    import those make on first use. A NaN makes all three NaN, as in numpy."""
    v = sorted(float(x) for x in values)
    n = len(v)
    if any(x != x for x in v):
        return (float("nan"),) * 3
    median = v[n // 2] if n % 2 else (v[n // 2 - 1] + v[n // 2]) / 2
    quartiles = []
    for q in (0.25, 0.75):
        index = (n - 1) * q  # numpy's n q + (1 - q) - 1, exact for quarters
        lo = int(index)
        t = index - lo
        a, b = v[lo], v[min(lo + 1, n - 1)]
        quartiles.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return (median, *quartiles)


def _aggregate(cfg: ExperimentConfig, config: dict, runs: list) -> str:
    """Build the aggregate CSV text: the ``config`` comment, then medians and
    quartiles per k."""
    lines = [f"# config={json.dumps(config, sort_keys=True)}", ",".join(CSV_COLUMNS)]
    for k in cfg.k_list:
        good = [r for r in runs if r["k"] == k and "error" not in r]
        if good:
            fkl = _quantiles(r["metrics"]["fkl"] for r in good)
            rkl = _quantiles(r["metrics"]["rkl"] for r in good)
            medians = [_quantiles(r["metrics"]["skl"] for r in good)[0],
                       _quantiles(r["metrics"]["map_l2"] for r in good)[0],
                       _quantiles(r["time_ns"] for r in good)[0]]
            cells = ([cfg.experiment, cfg.solver, str(k), str(len(good))]
                     + [repr(v) for v in (*fkl, *rkl, *medians)])
        else:
            cells = [cfg.experiment, cfg.solver, str(k), "0"] + [""] * 9
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _write_json(path: Path, payload: dict) -> None:
    """One line of JSON with sorted keys. Without ``indent`` CPython encodes
    in C; with it, in pure Python, several times slower."""
    path.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")


@dataclass
class SweepResult:
    csv_path: Path
    run_paths: list
    failures: int


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Construct and evaluate coresets for every (trial, k); write reports.

    Per-run JSON files (``run_<experiment>_<solver>_k<k>_t<trial>.json``)
    and one aggregate CSV (median and quartile columns per k) land in
    ``cfg.outdir``. Per-trial seeds derive from the base seed
    plus the trial index, and aggregation is deterministic.
    """
    config = _recorded(cfg, "sweep")
    runs = [run for t in range(cfg.trials) for run in _run_trial(cfg, t, config)]

    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    run_paths = []
    failures = 0
    for run in runs:
        name = f"run_{cfg.experiment}_{cfg.solver}_k{run['k']}_t{run['trial']}.json"
        path = outdir / name
        _write_json(path, run)
        run_paths.append(path)
        if "error" in run:
            failures += 1
    csv_path = outdir / f"aggregate_{cfg.experiment}_{cfg.solver}.csv"
    csv_path.write_text(_aggregate(cfg, config, runs), encoding="utf-8")
    return SweepResult(csv_path=csv_path, run_paths=run_paths, failures=failures)


def run_theory_check(cfg: ExperimentConfig) -> tuple[Path, bool]:
    """Exhaustive isometry constants + brute-force optimum + invariant check.

    Builds a planted instance sized by (n_data, s_count, the config's one k),
    estimates its isometry constants at the levels k's bound reads, finds
    the brute-force optimum, then verifies the aiht solver's per-iteration
    error bound against it. ``theory_check.json`` stores the constants and,
    under ``"report"``, the dict ``check_iterative_invariant`` returns, as
    it is. Returns that file's path and the report's ``all_satisfied``.
    Raises ``EnumerationBudgetError`` when the support enumeration exceeds
    ``rip_budget``.
    """
    if cfg.solver != "aiht":
        raise ValueError(f"theory-check checks the aiht solver, not {cfg.solver!r}")
    if len(cfg.k_list) != 1:
        raise ValueError(f"theory-check takes one sparsity level, got k_list {cfg.k_list}")
    k = cfg.k_list[0]
    problem, planted = make_planted_problem(
        cfg.n_data, cfg.s_count, k, cfg.seed, near_orthonormal=cfg.near_orthonormal)
    rip = estimate_rip(problem, k, budget=cfg.rip_budget)
    w_star, f_star = brute_force_optimum(problem, k, budget=cfg.rip_budget)
    report = check_iterative_invariant(problem, _solver_config(cfg, k), w_star, rip)
    payload = {
        "config": _recorded(cfg, "theory-check"),
        "seed": cfg.seed,
        "planted_support": [int(i) for i in planted.support],
        "brute_force_support": [int(i) for i in w_star.support],
        "brute_force_objective": f_star,
        "rip": rip.to_dict(),
        "report": report,
    }
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "theory_check.json"
    _write_json(path, payload)
    return path, report["all_satisfied"]


def run_gen_data(cfg: ExperimentConfig) -> Path:
    """Write the trial-0 synthetic dataset as a CSV the loader reads back."""
    model = _model_for_trial(cfg, 0)
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"dataset_{cfg.experiment}_seed{cfg.seed}.csv"
    save_csv_dataset(path, model.dataset)
    return path


class _RunFailed(RuntimeError):
    """A build's one run failed; the message is the error its run recorded."""


def run_build(cfg: ExperimentConfig) -> Path:
    """Construct one coreset (trial 0, the config's one k) and write weights +
    trace to ``build_<experiment>_<solver>_k<k>.json``. A failed run writes
    nothing and raises ``RuntimeError`` with the run's recorded error."""
    if len(cfg.k_list) != 1:
        raise ValueError(f"build takes one sparsity level, got k_list {cfg.k_list}")
    (run,) = _run_trial(cfg, 0, _recorded(cfg, "build"))
    if "error" in run:
        raise _RunFailed(run["error"])
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"build_{cfg.experiment}_{cfg.solver}_k{run['k']}.json"
    _write_json(path, run)
    return path


def run_evaluate(weights_path, outdir=None) -> dict:
    """Re-evaluate a build output: rebuild the model, recompute the metrics.

    Raises ``ValueError`` naming the file when it holds no coreset weights, as
    the run JSON of a failed sweep run does, or weights that do not fit the
    rebuilt model. The result records the fields of the input's config that
    a sweep of its experiment and solver reads; any other recorded field, as
    outputs written before configs were cut to that set carry, is dropped.
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
    if not (isinstance(values, list) and len(values) == len(support)
            and all(type(v) in (int, float) and 0.0 <= v < np.inf for v in values)):
        raise ValueError(f"{weights_path}: values must be finite non-negative numbers, one per index")
    cfg = ExperimentConfig.from_dict(payload["config"])
    trial = payload["trial"]
    if not (type(trial) is int and 0 <= trial < cfg.trials):
        raise ValueError(f"{weights_path}: trial must be an integer in [0, {cfg.trials})")
    model = _model_for_trial(cfg, trial)
    n = model.dataset.n
    if not all(0 <= i < n for i in support):
        raise ValueError(f"{weights_path}: support index out of range [0, {n})")
    if len(set(support)) != len(support):
        raise ValueError(f"{weights_path}: support repeats an index")
    w = np.zeros(n)
    w[support] = values
    metrics = _metrics(model, full_data_posterior(model), WeightVector(w))
    reads = _reads(cfg, "sweep")
    config = {name: value for name, value in payload["config"].items() if name in reads}
    result = {"config": config, "seed": payload["seed"],
              "k": payload["k"], "metrics": metrics}
    if outdir is not None:
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / (Path(weights_path).stem + "_metrics.json")
        _write_json(path, result)
    return result


# -- argument parsing --------------------------------------------------------

def _sparsity_levels(text: str) -> list:
    """``--k`` "10,20" as [10, 20]. Empty entries are skipped, so an empty
    ``--k`` gives [], which ExperimentConfig refuses."""
    return [int(v) for v in text.split(",") if v]


# The one table of settings: each row's flag, the ExperimentConfig field it
# sets (None for a flag that is not a config field) and the subcommands
# whose code reads it.
# argparse refuses a flag, and config_from_args a config file field, on any
# other subcommand. config_from_args also refuses a field or flag that only
# another experiment or solver reads (EXPERIMENTS, SOLVERS), and an output
# records the fields that remain.
_FLAGS = (
    ("--config", None, "gen-data build sweep theory-check",
     dict(help="JSON config file; flags override its fields")),
    ("--experiment", "experiment", "gen-data build sweep", dict(choices=EXPERIMENTS)),
    ("--solver", "solver", "build sweep", dict(choices=SOLVERS)),
    ("--k", "k_list", "build sweep theory-check",
     dict(type=_sparsity_levels, help="comma-separated sparsity levels")),
    ("--trials", "trials", "sweep", dict(type=int)),
    ("--seed", "seed", "gen-data build sweep theory-check", dict(type=int)),
    ("--s-count", "s_count", "build sweep theory-check", dict(type=int)),
    ("--dim", "dim", "gen-data build sweep", dict(type=int)),
    ("--n-data", "n_data", "gen-data build sweep theory-check", dict(type=int)),
    ("--weights", None, "evaluate", dict(required=True, help="build output JSON")),
    ("--outdir", "outdir", "gen-data build sweep theory-check evaluate",
     dict(help="output directory")),
    ("--rel-tol", "rel_tol", "build sweep theory-check", dict(type=float)),
    ("--max-iters", "max_iters", "build sweep theory-check", dict(type=int)),
    ("--batch-fraction", "batch_fraction", "build sweep", dict(type=float)),
    ("--step", "vanilla_step", "build sweep", dict(type=float)),
    ("--csv-path", "csv_path", "gen-data build sweep", {}),
    ("--csv-kind", "csv_kind", "gen-data build sweep", {}),
    ("--rip-budget", "rip_budget", "theory-check", dict(type=int)),
    ("--near-orthonormal", "near_orthonormal", "theory-check",
     dict(action="store_const", const=True)),
    ("--no-timing", "record_timing", "build sweep", dict(action="store_const", const=False)),
)

_COMMANDS = {
    "gen-data": "write a synthetic dataset CSV",
    "build": "construct one coreset and write weights + trace",
    "sweep": "run the (trial x k) sweep and write per-run JSON + aggregate CSV",
    "theory-check": "verify the solver error bound on a small planted instance",
    "evaluate": "recompute metrics for a build output",
}

# The config fields each subcommand reads, whatever its experiment and solver.
_READS = {command: frozenset(name for _, name, commands, _ in _FLAGS
                            if name and command in commands.split())
         for command in _COMMANDS}


def _reads(cfg: ExperimentConfig, command: str) -> frozenset:
    """The fields ``command`` reads with ``cfg``'s experiment and solver: its
    ``_READS`` entry minus the fields that only other choices read."""
    reads = _READS[command]
    for name, table in (("experiment", EXPERIMENTS), ("solver", SOLVERS)):
        if name in reads:
            reads -= frozenset().union(*table.values()) - table[getattr(cfg, name)]
    return reads


def _recorded(cfg: ExperimentConfig, command: str) -> dict:
    """The fields of ``cfg`` that ``command`` reads: the config its outputs record."""
    reads = _reads(cfg, command)
    return {name: value for name, value in cfg.to_dict().items() if name in reads}


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Precedence: flags > config file > dataclass defaults. A config file
    field or flag that ``args.command`` does not read, with the experiment
    and solver it runs, is refused."""
    payload = json.loads(Path(args.config).read_text(encoding="utf-8")) if args.config else {}
    if not isinstance(payload, dict):
        raise ValueError(f"{args.config}: a config must be a JSON object")
    command = args.command
    unread = sorted(set(payload) & {f.name for f in fields(ExperimentConfig)} - _READS[command])
    if unread:
        raise ValueError(f"{command} does not read config fields {unread}")
    for name in _READS[command]:
        value = getattr(args, name, None)
        if value is not None:
            payload[name] = value
    cfg = ExperimentConfig.from_dict(payload)
    unread = sorted(set(payload) - _reads(cfg, command))
    if unread:
        choices = " and ".join(f"{name} {getattr(cfg, name)}"
                               for name in ("experiment", "solver") if name in _READS[command])
        raise ValueError(f"{command} with {choices} does not read config fields {unread}")
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coreset-iht",
        description="Bayesian coreset construction by accelerated iterative hard thresholding")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for flag, name, commands, options in _FLAGS:
            if command in commands.split():
                p.add_argument(flag, **({"dest": name} if name else {}), **options)

    args = parser.parse_args(argv)
    try:
        if args.command == "evaluate":
            result = run_evaluate(args.weights, outdir=args.outdir)
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
            path, satisfied = run_theory_check(cfg)
            print(path)
            return 0 if satisfied else 1
        result = run_sweep(cfg)
        print(result.csv_path)
        if result.failures:
            print(f"{result.failures} run(s) failed", file=sys.stderr)
            return 1
        return 0
    except EnumerationBudgetError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, _RunFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NewtonConvergenceError, CurvatureError, NegativeKlError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
