import csv
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coreset_iht
from coreset_iht import (EnumerationBudgetError, SparseRegressionProblem, brute_force_optimum,
                         check_iterative_invariant, cli, estimate_rip, gradient,
                         load_csv_dataset, make_planted_problem, models, objective)
from coreset_iht.cli import (
    CSV_COLUMNS,
    ExperimentConfig,
    config_from_args,
    main,
    run_build,
    run_evaluate,
    run_gen_data,
    run_sweep,
    run_theory_check,
)


def tiny_config(outdir, **overrides):
    payload = dict(experiment="gaussian", solver="aiht", k_list=[3, 5], trials=3,
                   seed=0, s_count=100, dim=3, n_data=20, outdir=str(outdir),
                   record_timing=False)
    payload.update(overrides)
    return ExperimentConfig.from_dict(payload)


def read_aggregate(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("# config=")
    rows = list(csv.DictReader(lines[1:]))
    return lines[0], rows


@pytest.fixture(scope="module")
def logistic_build(tmp_path_factory):
    """A logistic N=200 build output with a 5-point coreset."""
    cfg = tiny_config(tmp_path_factory.mktemp("build"), experiment="logistic", dim=2,
                      n_data=200, s_count=60, k_list=[5], trials=1)
    return run_build(cfg)


class TestConfig:
    def test_round_trip(self):
        cfg = tiny_config("/tmp/x", batch_fraction=0.5)
        assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_config("/tmp/x", experiment="mystery")
        with pytest.raises(ValueError):
            tiny_config("/tmp/x", solver="greedy")
        with pytest.raises(ValueError):
            tiny_config("/tmp/x", trials=0)
        with pytest.raises(ValueError):
            tiny_config("/tmp/x", k_list=[])
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"experiment": "csv"})

    def test_csv_kind_checked_when_config_is_made(self, tmp_path, capsys):
        # Refused before a sweep creates its outdir, not at trial 0.
        outdir = tmp_path / "out"
        assert main(["sweep", "--experiment", "csv", "--csv-path", "d.csv",
                     "--outdir", str(outdir)]) == 1
        assert "csv_kind" in capsys.readouterr().err and not outdir.exists()
        for kind in ("", "gaussian"):
            with pytest.raises(ValueError, match="csv_kind"):
                ExperimentConfig.from_dict({"experiment": "csv", "csv_path": "d.csv",
                                            "csv_kind": kind})
        with pytest.raises(ValueError, match="csv_kind"):
            ExperimentConfig.from_dict({"experiment": "csv", "csv_path": "d.csv"})
        for kind in models.MODEL_KINDS:
            assert ExperimentConfig.from_dict(
                {"experiment": "csv", "csv_path": "d.csv", "csv_kind": kind}).csv_kind == kind

    @pytest.mark.parametrize("setting,message", [
        ({"basis_scales": []}, "unknown config fields: ['basis_scales']"),
        ({"basis_scales": [0.0, 1.0]}, "unknown config fields: ['basis_scales']"),
        ({"basis_scales": [-1.0, 1.0]}, "unknown config fields: ['basis_scales']"),
        ({"basis_scales": [1.0, float("inf")]}, "unknown config fields: ['basis_scales']"),
        ({"per_scale_count": 0}, "unknown config fields: ['per_scale_count']"),
    ], ids=["no_scales", "zero_scale", "negative_scale", "infinite_scale", "zero_count"])
    def test_radial_basis_settings_checked_when_config_is_made(self, tmp_path, capsys,
                                                               setting, message):
        # The radial-basis basis is the generator's constant, so a config
        # that sets it, in or out of range, is refused before a sweep
        # creates its outdir.
        outdir = tmp_path / "out"
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"experiment": "radial_basis", "n_data": 30,
                                        "k_list": [3], **setting}))
        assert main(["sweep", "--config", str(cfg_file), "--outdir", str(outdir)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not outdir.exists()

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"mystery_knob": 1})

    def test_flag_precedence_over_file(self, tmp_path):
        # The file is the config a sweep records, which a sweep reads back.
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(cli._recorded(tiny_config(tmp_path, trials=5), "sweep")))
        import argparse
        ns = argparse.Namespace(command="sweep", config=str(cfg_file), trials=2, k_list=[7])
        cfg = config_from_args(ns)
        assert cfg.trials == 2           # flag wins
        assert cfg.k_list == [7]         # flag wins
        assert cfg.s_count == 100        # file value survives


class TestSweep:
    def test_single_run_has_one_row(self, tmp_path):
        cfg = tiny_config(tmp_path, k_list=[4], trials=1)
        result = run_sweep(cfg)
        assert result.failures == 0
        _, rows = read_aggregate(result.csv_path)
        assert len(rows) == 1
        assert list(rows[0]) == list(CSV_COLUMNS)
        assert rows[0]["trial_count"] == "1"

    def test_byte_identical_on_rerun(self, tmp_path):
        cfg = tiny_config(tmp_path)
        first = run_sweep(cfg)
        blobs = {p.name: p.read_bytes() for p in (first.csv_path, *first.run_paths)}
        second = run_sweep(cfg)
        for p in (second.csv_path, *second.run_paths):
            assert p.read_bytes() == blobs[p.name]

    def test_run_outputs_are_one_line_of_sorted_json(self, tmp_path):
        result = run_sweep(tiny_config(tmp_path, k_list=[4], trials=1))
        (path,) = result.run_paths
        text = path.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"

    def test_two_experiments_share_an_outdir(self, tmp_path):
        # Run files are named by experiment too, so a second sweep with the
        # same solver into the same directory overwrites none of the first's.
        gauss = run_sweep(tiny_config(tmp_path, k_list=[3], trials=2))
        logistic = run_sweep(tiny_config(tmp_path, experiment="logistic", dim=2,
                                         k_list=[3], trials=2))
        paths = gauss.run_paths + logistic.run_paths
        assert len(set(paths)) == 4
        assert sorted(tmp_path.glob("run_*.json")) == sorted(paths)
        for result, experiment in ((gauss, "gaussian"), (logistic, "logistic")):
            for p in result.run_paths:
                assert json.loads(p.read_text())["experiment"] == experiment

    def test_median_matches_independent_aggregation(self, tmp_path):
        cfg = tiny_config(tmp_path)
        result = run_sweep(cfg)
        _, rows = read_aggregate(result.csv_path)
        runs = [json.loads(p.read_text()) for p in result.run_paths]
        for row in rows:
            k = int(row["k"])
            rkls = sorted(r["metrics"]["rkl"] for r in runs if r["k"] == k)
            middle = rkls[len(rkls) // 2]  # 3 trials: middle sorted value
            assert float(row["rkl_med"]) == pytest.approx(middle, rel=1e-12)

    def test_provenance_in_every_output(self, tmp_path):
        cfg = tiny_config(tmp_path, k_list=[4], trials=1)
        result = run_sweep(cfg)
        header, _ = read_aggregate(result.csv_path)
        # A gaussian aiht sweep reads the fields every sweep reads, the
        # gaussian experiment's and those of a solver that builds a projection.
        recorded = {name: value for name, value in cfg.to_dict().items()
                    if name in ("experiment", "solver", "k_list", "trials", "seed", "outdir",
                                "record_timing", "dim", "n_data", "s_count", "max_iters",
                                "rel_tol")}
        assert json.loads(header[len("# config="):]) == recorded
        for p in result.run_paths:
            payload = json.loads(p.read_text())
            assert payload["config"] == recorded
            assert "seed" in payload

    def test_failures_recorded_and_sweep_continues(self, tmp_path):
        cfg = tiny_config(tmp_path, solver="vanilla", vanilla_step=1e12)  # diverges
        result = run_sweep(cfg)
        assert result.failures == len(result.run_paths) == 6
        for p in result.run_paths:
            assert "error" in json.loads(p.read_text())
        _, rows = read_aggregate(result.csv_path)
        assert all(r["trial_count"] == "0" for r in rows)

    def test_every_aggregate_row_has_a_map_distance(self, tmp_path):
        result = run_sweep(tiny_config(tmp_path))
        _, rows = read_aggregate(result.csv_path)
        assert [int(r["trial_count"]) for r in rows] == [3, 3]
        assert all(float(r["map_l2_med"]) >= 0 for r in rows)

    def test_uniform_solver_runs(self, tmp_path):
        cfg = tiny_config(tmp_path, solver="uniform", k_list=[4], trials=2)
        result = run_sweep(cfg)
        assert result.failures == 0
        _, rows = read_aggregate(result.csv_path)
        assert float(rows[0]["rkl_med"]) > 0

    @pytest.mark.parametrize("solver", ["aiht_debias", "uniform"])
    @pytest.mark.parametrize("experiment", ["radial_basis", "logistic"])
    def test_each_posterior_fitted_once(self, tmp_path, monkeypatch, experiment, solver):
        # One full-data fit (pi-hat) per trial and one coreset fit per
        # (trial, k) run; the metrics reuse both.
        fits = {"full": 0, "coreset": 0}

        def counted(fit):
            def wrapper(model, weights, *args, **kwargs):
                w = getattr(weights, "w", weights)
                fits["full" if np.all(np.asarray(w) == 1.0) else "coreset"] += 1
                return fit(model, weights, *args, **kwargs)
            return wrapper

        for name in ("conjugate_posterior", "laplace_approximation"):
            monkeypatch.setattr(models, name, counted(getattr(models, name)))
        cfg = tiny_config(tmp_path, experiment=experiment, solver=solver, dim=2,
                          n_data=30, s_count=50)
        result = run_sweep(cfg)
        assert result.failures == 0
        trials, ks = cfg.trials, len(cfg.k_list)
        assert fits == {"full": trials, "coreset": trials * ks}


def perfbench_tracing():
    """``perfbench/tracing.py``, which names the cli calls that ``--trace 1``
    wraps."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestProblemSeam:
    """``_run_trial`` hands the solver exactly the problem that
    ``ProjectionSet.to_problem`` returns: the one on the rank-r factor of
    ``phi``'s Gram matrix, tall or wide, unless a wide ``phi`` has rank above
    S/2 and the problem is on ``phi`` itself."""

    @staticmethod
    def solved(monkeypatch, solver_name, run):
        """Call ``run`` with ``to_problem`` and the solver recorded, check that
        the solver got the problems ``to_problem`` returned, each once per k,
        and return (each projection's phi, each returned problem)."""
        projections, built, solved = [], [], []
        to_problem = models.ProjectionSet.to_problem

        def recording_to_problem(self):
            projections.append(self.phi)
            built.append(to_problem(self))
            return built[-1]

        solve = getattr(cli, solver_name)

        def recording_solve(problem, *args, **kwargs):
            solved.append(problem)
            return solve(problem, *args, **kwargs)

        monkeypatch.setattr(models.ProjectionSet, "to_problem", recording_to_problem)
        monkeypatch.setattr(cli, solver_name, recording_solve)
        run()
        ks = len(solved) // len(built)
        assert len(solved) == ks * len(built) and ks >= 1
        assert all(problem is built[i // ks] for i, problem in enumerate(solved))
        return projections, built

    def sweep(self, monkeypatch, cfg):
        def run():
            assert run_sweep(cfg).failures == 0
        return self.solved(monkeypatch, "solve_" + cfg.solver, run)

    def test_tall_sweep_solves_on_the_gram_factor(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path)  # S = 100 > n = 20
        projections, problems = self.sweep(monkeypatch, cfg)
        assert [phi.shape for phi in projections] == [(100, 20)] * cfg.trials
        # A Gaussian phi has rank d + 1: the log-density is quadratic in theta.
        assert [p.phi.shape for p in problems] == [(cfg.dim + 1, cfg.n_data)] * cfg.trials

    def test_gram_factor_matches_the_paper_problem(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path, solver="aiht_debias", k_list=[30], trials=3,
                          dim=20, n_data=100, s_count=2000)
        projections, problems = self.sweep(monkeypatch, cfg)
        rng = np.random.default_rng(0)
        for phi, factor in zip(projections, problems):
            full = SparseRegressionProblem.from_columns(phi)
            assert factor.phi.shape == (21, 100)
            y_sq = float(full.y @ full.y)
            for _ in range(5):
                w = rng.uniform(0.0, 3.0, 100) * (rng.random(100) < 0.3)
                assert abs(objective(factor, w) - objective(full, w)) <= 1e-10 * y_sq
                assert np.max(np.abs(gradient(factor, w) - gradient(full, w))) <= 1e-10 * y_sq

    def zero_feature_sweep(self, tmp_path, monkeypatch, rows):
        """(shapes solved on, objective) of a linear-regression CSV sweep at
        S = 50 whose one feature is zero on all ``rows`` rows: every
        log-likelihood is constant in theta, so phi and its Gram matrix are
        zero and the factorisation has no pivot."""
        data_path = tmp_path / "zero.csv"
        data_path.write_text("x0,y\n" + "".join(f"0,{i % 7 - 3.0}\n" for i in range(rows)))

        def run():
            assert main(["sweep", "--experiment", "csv", "--csv-path", str(data_path),
                         "--csv-kind", "linear_regression", "--s-count", "50", "--k", "2",
                         "--solver", "aiht_debias", "--outdir", str(tmp_path / "out"),
                         "--no-timing"]) == 0

        _, problems = self.solved(monkeypatch, "solve_aiht_debias", run)
        (run_path,) = (tmp_path / "out").glob("run_*.json")
        return [p.phi.shape for p in problems], json.loads(run_path.read_text())["objective"]

    def test_all_zero_tall_problem_keeps_one_row(self, tmp_path, monkeypatch):
        assert self.zero_feature_sweep(tmp_path, monkeypatch, 4) == ([(1, 4)], 0.0)

    def test_all_zero_wide_problem_keeps_one_row(self, tmp_path, monkeypatch):
        assert self.zero_feature_sweep(tmp_path, monkeypatch, 80) == ([(1, 80)], 0.0)

    def test_low_rank_wide_sweep_solves_on_the_gram_factor(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path, experiment="logistic", dim=2, n_data=400, s_count=200)
        projections, problems = self.sweep(monkeypatch, cfg)
        assert [phi.shape for phi in projections] == [(200, 400)] * cfg.trials
        for problem in problems:
            assert problem.s_dim <= cfg.s_count // 2 and problem.n == cfg.n_data
            assert problem.phi.flags.f_contiguous

    def test_wide_sweep_solves_the_projection_problem(self, tmp_path, monkeypatch):
        # A radial-basis phi has full numerical rank, so a factor would not
        # halve its products.
        cfg = tiny_config(tmp_path, experiment="radial_basis", n_data=120, s_count=60)
        projections, problems = self.sweep(monkeypatch, cfg)
        assert len(problems) == cfg.trials
        assert all(p.phi is phi for p, phi in zip(problems, projections))

    def test_sweeps_make_the_traced_calls(self, tmp_path, monkeypatch):
        # perfbench --trace 1 rebinds these cli names and wraps
        # ProjectionSet.to_problem; a sweep that stopped calling one of them
        # would silently drop its per-layer numbers.
        tracing = perfbench_tracing()
        calls = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        for names in tracing.CLI_CALLS.values():
            for name in names:
                monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
        monkeypatch.setattr(models.ProjectionSet, "to_problem",
                            counted("to_problem", models.ProjectionSet.to_problem))
        for experiment in ("gaussian", "logistic", "radial_basis"):
            calls.pop("to_problem", None)
            cfg = tiny_config(tmp_path, experiment=experiment, solver=tracing.SOLVER,
                              dim=2, n_data=30, s_count=50)
            assert run_sweep(cfg).failures == 0
            assert calls["to_problem"] == cfg.trials
        expected = {name for names in tracing.CLI_CALLS.values() for name in names}
        assert expected <= set(calls)

    @pytest.mark.parametrize("solver", list(cli.SOLVERS))
    def test_only_solvers_that_read_s_count_build_a_projection(self, tmp_path, monkeypatch,
                                                                solver):
        calls = {"build_projection": 0, "to_problem": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "build_projection",
                            counted("build_projection", cli.build_projection))
        monkeypatch.setattr(models.ProjectionSet, "to_problem",
                            counted("to_problem", models.ProjectionSet.to_problem))
        step = {"vanilla_step": 0.5} if solver == "vanilla" else {}
        cfg = tiny_config(tmp_path, solver=solver, **step)
        assert run_sweep(cfg).failures == 0
        builds = 0 if solver == "uniform" else cfg.trials
        assert calls == {"build_projection": builds, "to_problem": builds}


class TestTheoryCheck:
    def test_small_instance_completes(self, tmp_path):
        cfg = tiny_config(tmp_path, n_data=8, k_list=[2], s_count=30, seed=3)
        path, satisfied = run_theory_check(cfg)
        payload = json.loads(path.read_text())
        assert satisfied is True
        assert payload["report"]["all_satisfied"] is True
        assert payload["brute_force_objective"] <= 1e-16
        assert set(payload["rip"]["levels"]) == {2, 4, 6, 8}

    def test_repeat_writes_the_same_bytes(self, tmp_path):
        cfg = tiny_config(tmp_path, n_data=10, k_list=[2], s_count=30, seed=3)
        path, _ = run_theory_check(cfg)
        first = path.read_bytes()
        assert run_theory_check(cfg)[0].read_bytes() == first

    def test_report_is_the_library_dict(self, tmp_path):
        # Clamped levels: 3k and 4k exceed n = 6.
        cfg = tiny_config(tmp_path, n_data=6, k_list=[2], s_count=20, seed=1)
        path, satisfied = run_theory_check(cfg)
        payload = json.loads(path.read_text())
        assert payload["rip"]["levels"] == [2, 4, 6]
        problem, _ = make_planted_problem(6, 20, 2, 1)
        w_star, _ = brute_force_optimum(problem, 2)
        report = check_iterative_invariant(problem, cli._solver_config(cfg, 2), w_star,
                                           estimate_rip(problem, 2))
        assert payload["report"] == report
        assert satisfied is report["all_satisfied"]

    def test_budget_refusal(self, tmp_path):
        cfg = tiny_config(tmp_path, n_data=8, k_list=[2], s_count=30, rip_budget=1)
        with pytest.raises(EnumerationBudgetError):
            run_theory_check(cfg)

    def test_library_call_with_another_solver_refused(self, tmp_path):
        # The CLI cannot set a theory-check solver; a library caller can.
        cfg = tiny_config(tmp_path / "out", n_data=8, k_list=[2], s_count=30,
                          solver="aiht_debias")
        with pytest.raises(ValueError, match="checks the aiht solver, not 'aiht_debias'"):
            run_theory_check(cfg)
        assert not (tmp_path / "out").exists()


class TestDataAndBuild:
    def test_gen_data_round_trip(self, tmp_path):
        cfg = tiny_config(tmp_path, experiment="logistic", dim=2, n_data=15)
        path = run_gen_data(cfg)
        ds = load_csv_dataset(path)
        assert ds.n == 15 and ds.d == 2

    def test_builds_of_two_experiments_share_an_outdir(self, tmp_path):
        gauss = run_build(tiny_config(tmp_path, k_list=[5], trials=1))
        logistic = run_build(tiny_config(tmp_path, experiment="logistic", dim=2,
                                         k_list=[5], trials=1))
        assert gauss != logistic
        assert sorted(tmp_path.glob("build_*.json")) == sorted([gauss, logistic])
        for path, experiment in ((gauss, "gaussian"), (logistic, "logistic")):
            assert json.loads(path.read_text())["experiment"] == experiment

    def test_build_then_evaluate(self, tmp_path):
        cfg = tiny_config(tmp_path, k_list=[4], trials=1)
        build_path = run_build(cfg)
        payload = json.loads(Path(build_path).read_text())
        assert payload["k"] == 4 and len(payload["support"]) <= 4
        result = run_evaluate(build_path, outdir=tmp_path)
        for key in ("fkl", "rkl", "skl", "map_l2"):
            assert result["metrics"][key] == payload["metrics"][key]


class TestMainEntry:
    def test_sweep_exit_zero(self, tmp_path, capsys):
        rc = main(["sweep", "--experiment", "gaussian", "--solver", "aiht",
                   "--k", "4", "--trials", "1", "--seed", "0", "--s-count", "80",
                   "--dim", "3", "--n-data", "15", "--outdir", str(tmp_path),
                   "--no-timing"])
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert out.endswith(".csv")

    def test_theory_check_budget_exit_two(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        rc = main(["theory-check", "--n-data", "8", "--k", "2", "--s-count", "30",
                   "--rip-budget", "1", "--outdir", str(outdir)])
        assert rc == 2
        assert "refused" in capsys.readouterr().err
        assert not outdir.exists()

    def test_near_orthonormal_theory_check_with_too_few_samples_writes_nothing(
            self, tmp_path, capsys):
        outdir = tmp_path / "out"
        assert main(["theory-check", "--n-data", "8", "--k", "2", "--s-count", "5",
                     "--near-orthonormal", "--outdir", str(outdir)]) == 1
        assert capsys.readouterr().err == "error: near-orthonormal instances need s_dim >= n\n"
        assert not outdir.exists()

    def test_sweep_failures_exit_one(self, tmp_path):
        rc = main(["sweep", "--experiment", "gaussian", "--solver", "vanilla",
                   "--k", "4", "--trials", "1", "--seed", "0", "--s-count", "80",
                   "--dim", "3", "--n-data", "15", "--outdir", str(tmp_path),
                   "--no-timing", "--step", "1e12"])
        assert rc == 1

    def test_failed_build_exits_one_with_its_error(self, tmp_path, capsys):
        rc = main(["build", "--experiment", "gaussian", "--solver", "vanilla",
                   "--step", "1e300", "--k", "3", "--dim", "3", "--n-data", "30",
                   "--s-count", "50", "--outdir", str(tmp_path)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: DivergenceError: objective became non-finite "
                                "at iteration 0\n")
        assert not list(tmp_path.glob("build_*.json"))

    def test_evaluate_missing_weights_file_exits_one(self, tmp_path, capsys):
        rc = main(["evaluate", "--weights", str(tmp_path / "absent.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_sweep_missing_config_file_exits_one(self, tmp_path, capsys):
        rc = main(["sweep", "--config", str(tmp_path / "absent.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_evaluate_failed_run_exits_one(self, tmp_path, capsys):
        # vanilla with a huge --step diverges in every run; its run JSON has
        # no weights.
        rc = main(["sweep", "--experiment", "gaussian", "--solver", "vanilla",
                   "--k", "4", "--trials", "1", "--seed", "0", "--s-count", "80",
                   "--dim", "3", "--n-data", "15", "--outdir", str(tmp_path),
                   "--no-timing", "--step", "1e12"])
        assert rc == 1
        (failed,) = tmp_path.glob("run_*.json")
        capsys.readouterr()
        assert main(["evaluate", "--weights", str(failed)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        payload = json.loads(failed.read_text())
        del payload["error"]
        no_weights = tmp_path / "no_weights.json"
        no_weights.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="no_weights.json"):
            run_evaluate(no_weights)

    @pytest.mark.parametrize("flag", ["--batch-fraction=2", "--rel-tol=0", "--max-iters=-3"])
    def test_bad_solver_setting_rejected_before_any_run(self, tmp_path, capsys, flag):
        rc = main(["sweep", "--experiment", "gaussian", "--solver", "aiht_batched",
                   "--k", "4", "--trials", "1", "--seed", "0", "--s-count", "80",
                   "--dim", "3", "--n-data", "15", "--outdir", str(tmp_path),
                   "--no-timing", flag])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not list(tmp_path.glob("run_*.json"))

    @pytest.mark.parametrize("step", [None, "nan", "0", "-1", "inf"])
    def test_vanilla_without_a_step_rejected_before_any_run(self, tmp_path, capsys, step):
        outdir = tmp_path / "out"
        argv = ["sweep", "--experiment", "gaussian", "--solver", "vanilla",
                "--k", "4", "--trials", "1", "--seed", "0", "--s-count", "80",
                "--dim", "3", "--n-data", "15", "--outdir", str(outdir), "--no-timing"]
        rc = main(argv + ([] if step is None else ["--step", step]))
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: vanilla solver needs vanilla_step")
        assert not outdir.exists()

    def test_repeated_sparsity_level_rejected_before_any_run(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        rc = main(["sweep", "--experiment", "gaussian", "--solver", "aiht",
                   "--k", "3,3", "--trials", "2", "--seed", "0", "--s-count", "80",
                   "--dim", "3", "--n-data", "15", "--outdir", str(outdir), "--no-timing"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: k_list repeats a sparsity level")
        assert not outdir.exists()

    @pytest.mark.parametrize("case", ["index_past_end", "negative_index", "fractional_index",
                                      "duplicate_index", "length_mismatch", "no_trial",
                                      "trial_past_end", "negative_value", "nan_value",
                                      "null_value", "string_value"])
    def test_evaluate_malformed_weights_exits_one(self, tmp_path, capsys, logistic_build, case):
        payload = json.loads(logistic_build.read_text())
        if case == "index_past_end":
            payload["support"][0] = 200
        elif case == "negative_index":
            payload["support"][0] = -1
        elif case == "fractional_index":
            payload["support"][0] += 0.5
        elif case == "duplicate_index":
            payload["support"][1] = payload["support"][0]
        elif case == "length_mismatch":
            payload["values"].pop()
        elif case == "trial_past_end":
            payload["trial"] = 10 ** 30
        elif case.endswith("_value"):
            payload["values"][0] = {"negative_value": -0.5, "nan_value": float("nan"),
                                    "null_value": None, "string_value": "a"}[case]
        else:
            del payload["trial"]
        bad = tmp_path / f"{case}.json"
        bad.write_text(json.dumps(payload))
        assert main(["evaluate", "--weights", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{case}.json" in err

    @pytest.mark.parametrize("config,message", [
        ({"dim": "2"}, "config field dim must be int"),
        ({"map_l2": True}, "unknown config fields: ['map_l2']"),
        ({"momentum_formula": "exact_argmin"}, "unknown config fields: ['momentum_formula']"),
        ({"basis_scales": [0.5, 1.0]}, "unknown config fields: ['basis_scales']"),
        ({"per_scale_count": 2}, "unknown config fields: ['per_scale_count']"),
    ])
    def test_evaluate_bad_build_config_exits_one(self, tmp_path, capsys, logistic_build,
                                                 config, message):
        payload = json.loads(logistic_build.read_text())
        payload["config"].update(config)
        bad = tmp_path / "bad_config.json"
        bad.write_text(json.dumps(payload))
        assert main(["evaluate", "--weights", str(bad), "--outdir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config,message", [
        ({"trials": "2"}, "config field trials must be int"),
        ({"trials": 2.5}, "config field trials must be int"),
        ({"trials": True}, "config field trials must be int"),
        ({"k_list": 5}, "config field k_list must be list[int]"),
        ({"k_list": [3.5]}, "config field k_list must be list[int]"),
        ({"rel_tol": "0.5"}, "config field rel_tol must be float"),
        ({"record_timing": 0}, "config field record_timing must be bool"),
        ({"map_l2": True}, "unknown config fields: ['map_l2']"),
        ([1, 2], "a config must be a JSON object"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"dim": 0}, "dim must be >= 1, got 0"),
        ({"n_data": 0}, "n_data must be >= 1, got 0"),
        ({"s_count": 1}, "s_count must be >= 2, got 1"),
        ({"momentum_formula": "exact_argmin"}, "unknown config fields: ['momentum_formula']"),
    ])
    def test_malformed_config_file_rejected_before_any_run(self, tmp_path, capsys,
                                                           config, message):
        outdir = tmp_path / "out"
        if isinstance(config, dict):
            config = {**cli._recorded(tiny_config(outdir, trials=1), "sweep"), **config}
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(cfg_file), "--outdir", str(outdir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not outdir.exists()

    def test_map_l2_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--no-map-l2", "--outdir", str(tmp_path / "out")])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --no-map-l2" in capsys.readouterr().err

    def test_momentum_flag_is_gone(self, tmp_path, capsys):
        # The one momentum coefficient is the exact line minimum.
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--momentum", "exact_argmin", "--outdir", str(tmp_path / "out")])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --momentum" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", [["--k", "7"], ["--experiment", "logistic"],
                                      ["--solver", "uniform"], ["--trials", "9"]])
    def test_evaluate_refuses_sweep_flags(self, tmp_path, capsys, logistic_build, flag):
        # evaluate rebuilds everything from the build's own config; a sweep
        # flag would be ignored, so argparse refuses it.
        with pytest.raises(SystemExit) as exit_info:
            main(["evaluate", "--weights", str(logistic_build), *flag,
                  "--outdir", str(tmp_path / "out")])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["theory-check", "--solver", "aiht_debias"],
        ["theory-check", "--experiment", "logistic"],
        ["gen-data", "--solver", "vanilla"],
        ["gen-data", "--k", "3"],
        ["build", "--trials", "2"],
        ["sweep", "--rip-budget", "5"],
        ["sweep", "--near-orthonormal"],
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_flag_the_subcommand_does_not_read_is_refused(self, tmp_path, capsys, argv):
        # A flag whose setting the subcommand's code never reads would be
        # ignored, or recorded in the output as if it had been used.
        outdir = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            main([argv[0], "--n-data", "10", *argv[1:], "--outdir", str(outdir)])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("argv,config,message", [
        (["build", "--k", "3,4"], {},
         "build takes one sparsity level, got k_list [3, 4]"),
        (["theory-check", "--k", "2,3"], {},
         "theory-check takes one sparsity level, got k_list [2, 3]"),
        (["theory-check", "--k", "2"], {"solver": "aiht_debias"},
         "theory-check does not read config fields ['solver']"),
        (["build", "--k", ""], {}, "k_list must contain positive sparsity levels"),
        (["sweep", "--k", ""], {}, "k_list must contain positive sparsity levels"),
    ], ids=["build_k_list", "theory_check_k_list", "theory_check_solver", "build_empty_k",
            "sweep_empty_k"])
    def test_setting_the_subcommand_would_drop_is_refused(self, tmp_path, capsys, argv,
                                                          config, message):
        # build and theory-check run one k, theory-check runs aiht only, and
        # an empty --k is no sparsity level, not the default one.
        outdir = tmp_path / "out"
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"n_data": 10, "s_count": 30, **config}))
        assert main([*argv, "--config", str(cfg_file), "--outdir", str(outdir)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not outdir.exists()

    def test_k_above_data_count_exits_one(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        rc = main(["sweep", "--experiment", "gaussian", "--n-data", "100", "--k", "200",
                   "--outdir", str(outdir)])
        assert rc == 1
        assert capsys.readouterr().err == "error: k values [200] exceed data count 100\n"
        assert not outdir.exists()

    def test_csv_uniform_sweep_uses_dataset_size(self, tmp_path, capsys):
        # The uniform baseline once drew weights for the default n_data (100)
        # rather than the CSV's 300 rows, and every run failed.
        rc = main(["gen-data", "--experiment", "logistic", "--dim", "2",
                   "--n-data", "300", "--seed", "1", "--outdir", str(tmp_path)])
        assert rc == 0
        data_path = capsys.readouterr().out.strip()
        outdir = tmp_path / "runs"
        rc = main(["sweep", "--experiment", "csv", "--csv-path", data_path,
                   "--csv-kind", "logistic", "--solver", "uniform", "--k", "10",
                   "--trials", "2", "--seed", "0", "--outdir", str(outdir), "--no-timing"])
        assert rc == 0
        runs = [json.loads(p.read_text()) for p in sorted(outdir.glob("run_*.json"))]
        assert len(runs) == 2
        for run in runs:
            assert "error" not in run
            assert len(run["support"]) == 10 and max(run["support"]) < 300

    def test_gen_data_and_csv_experiment(self, tmp_path, capsys):
        rc = main(["gen-data", "--experiment", "poisson", "--dim", "1",
                   "--n-data", "30", "--seed", "2", "--outdir", str(tmp_path)])
        assert rc == 0
        data_path = capsys.readouterr().out.strip()
        rc = main(["sweep", "--experiment", "csv", "--csv-path", data_path,
                   "--csv-kind", "poisson", "--solver", "aiht_debias", "--k", "5",
                   "--trials", "1", "--seed", "0", "--s-count", "80",
                   "--outdir", str(tmp_path / "runs"), "--no-timing"])
        assert rc == 0

    def test_csv_gaussian_mean_sweep_matches_the_gaussian_sweep(self, tmp_path, capsys):
        # The gaussian and logistic experiments' datasets, written by gen-data
        # and read back as gaussian_mean and logistic CSVs, give the same runs
        # bit for bit: both paths take their prior from models.standard_model.
        common = ["--seed", "4", "--k", "5,10", "--s-count", "100", "--trials", "1",
                  "--no-timing"]
        for experiment, kind, dim in (("gaussian", "gaussian_mean", "3"),
                                      ("logistic", "logistic", "2")):
            outdir = tmp_path / experiment
            capsys.readouterr()
            assert main(["gen-data", "--experiment", experiment, "--dim", dim,
                         "--n-data", "40", "--seed", "4", "--outdir", str(outdir)]) == 0
            data_path = capsys.readouterr().out.strip()
            assert main(["sweep", "--experiment", experiment, "--dim", dim, "--n-data", "40",
                         *common, "--outdir", str(outdir)]) == 0
            assert main(["sweep", "--experiment", "csv", "--csv-path", data_path,
                         "--csv-kind", kind, *common, "--outdir", str(outdir)]) == 0
            for k in (5, 10):
                runs = []
                for name in (experiment, "csv"):
                    run = json.loads((outdir / f"run_{name}_aiht_k{k}_t0.json").read_text())
                    assert run.pop("experiment") == run.pop("config")["experiment"] == name
                    runs.append(run)
                assert "error" not in runs[0] and runs[0]["trace"]["records"]
                assert runs[0] == runs[1]


def readme_flag_lists() -> dict:
    """Each subcommand's flags, as the README's command-line table lists them."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = re.findall(r"^\| `([a-z-]+)` \| (`--.*`) \|$", readme.read_text(encoding="utf-8"),
                      re.MULTILINE)
    return {command: re.findall(r"--[a-z-]+", flags) for command, flags in rows}


def usage(argv, capsys) -> str:
    """The usage lines that ``coreset-iht *argv --help`` prints."""
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--help"])
    assert exit_info.value.code == 0
    return capsys.readouterr().out.split("\n\n")[0]


def test_readme_lists_the_fields_each_choice_reads():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = re.findall(r"^\| ((?:experiment|solver) `.*`) \| (`.*`) \|$",
                      readme.read_text(encoding="utf-8"), re.MULTILINE)
    listed = {"experiment": {}, "solver": {}}
    for choices, names in rows:
        for choice in re.findall(r"`([a-z_]+)`", choices):
            fields_read = listed[choices.split()[0]].setdefault(choice, set())
            fields_read.update(re.findall(r"`([a-z_]+)`", names))
    assert listed == {
        "experiment": {c: set(f) for c, f in cli.EXPERIMENTS.items() if f},
        "solver": {c: set(f) for c, f in cli.SOLVERS.items() if f}}


def test_readme_lists_the_flags_each_subcommand_accepts(capsys):
    listed = readme_flag_lists()
    (commands,) = re.findall(r"\{([a-z,-]+)\}", usage([], capsys))
    assert list(listed) == commands.split(",")
    for command, flags in listed.items():
        assert len(set(flags)) == len(flags), command
        accepted = set(re.findall(r"--[a-z][a-z-]*", usage([command], capsys)))
        assert accepted == set(flags), command


# -- the settings table: every config field has a reader ---------------------

CONFIG_COMMANDS = ("gen-data", "build", "sweep", "theory-check")
DEFAULTS = ExperimentConfig().to_dict()


def test_every_config_field_has_a_reader():
    assert set().union(*cli._READS.values()) == set(DEFAULTS)
    assert {command: len(cli._READS[command]) for command in CONFIG_COMMANDS} == {
        "gen-data": 7, "build": 15, "sweep": 16, "theory-check": 9}


# The radial-basis basis fields, now the generator's constants, with values
# they once took.
REMOVED_FIELDS = {"basis_scales": [0.5, 1.0], "per_scale_count": 2}
REMOVED_CASES = [(command, name) for command in CONFIG_COMMANDS for name in REMOVED_FIELDS]


@pytest.mark.parametrize("command,name", REMOVED_CASES,
                         ids=[" ".join(case) for case in REMOVED_CASES])
def test_removed_radial_basis_fields_are_unknown(tmp_path, capsys, command, name):
    # A config file written when the basis was a setting is refused, not
    # read or ignored.
    config = {name: REMOVED_FIELDS[name]}
    if command != "theory-check":
        config["experiment"] = "radial_basis"
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg_file), "--outdir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: unknown config fields: ['{name}']\n"
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_every_config_field_has_a_flag():
    # A setting with no flag has one value in use, so it is a constant
    # rather than a field.
    assert len(DEFAULTS) == 18
    assert all(flag for flag, _, _, _ in cli._FLAGS)
    assert sorted(name for _, name, _, _ in cli._FLAGS if name) == sorted(DEFAULTS)


# Each field a subcommand does not read, with its default value, so only the
# reading is refused; then files of several such fields.
UNREAD_CONFIGS = [(command, {name: DEFAULTS[name]})
                  for command in CONFIG_COMMANDS
                  for name in sorted(set(DEFAULTS) - cli._READS[command])] + [
    ("sweep", {"rip_budget": 5, "near_orthonormal": True}),
    ("theory-check", {"experiment": "logistic", "dim": 7, "trials": 4}),
    ("gen-data", {"solver": "vanilla", "n_data": 30}),
]


@pytest.mark.parametrize("command,config", UNREAD_CONFIGS,
                         ids=[f"{c} {','.join(config)}" for c, config in UNREAD_CONFIGS])
def test_config_field_the_subcommand_does_not_read_is_refused(tmp_path, capsys, command,
                                                              config):
    # A field the subcommand's code never reads would be ignored, or recorded
    # in the output as if it had been used.
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg_file), "--outdir", str(tmp_path / "out")]) == 1
    unread = sorted(set(config) - cli._READS[command])
    assert capsys.readouterr().err == f"error: {command} does not read config fields {unread}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_each_output_records_the_fields_its_subcommand_reads(tmp_path, capsys):
    common = ["--n-data", "8", "--seed", "3", "--s-count", "30", "--k", "2"]
    for command, extra in (("sweep", ["--trials", "2", "--no-timing"]), ("build", []),
                           ("theory-check", [])):
        assert main([command, *common, *extra, "--outdir", str(tmp_path / command)]) == 0
    (build_path,) = (tmp_path / "build").glob("build_*.json")
    assert main(["evaluate", "--weights", str(build_path),
                 "--outdir", str(tmp_path / "evaluate")]) == 0
    capsys.readouterr()

    (csv_path,) = (tmp_path / "sweep").glob("aggregate_*.csv")
    header, _ = read_aggregate(csv_path)
    sweep_configs = [json.loads(header[len("# config="):])] + [
        json.loads(p.read_text())["config"] for p in (tmp_path / "sweep").glob("run_*.json")]
    assert len(sweep_configs) == 3
    # The default gaussian experiment and aiht solver read neither the other
    # experiments' fields nor the batched and vanilla solvers' settings.
    unread = {"csv_path", "csv_kind", "batch_fraction", "vanilla_step"}
    for config in sweep_configs:
        assert set(config) == cli._READS["sweep"] - unread
    build_config = json.loads(build_path.read_text())["config"]
    assert set(build_config) == cli._READS["build"] - unread
    theory = json.loads((tmp_path / "theory-check" / "theory_check.json").read_text())
    assert set(theory["config"]) == cli._READS["theory-check"]
    (metrics_path,) = (tmp_path / "evaluate").iterdir()
    assert json.loads(metrics_path.read_text())["config"] == build_config


# -- the choice tables: each experiment and solver names the fields it reads --

PAIRS = [(experiment, solver) for experiment in cli.EXPERIMENTS for solver in cli.SOLVERS]


@pytest.fixture(scope="module")
def dataset_csv(tmp_path_factory):
    """A 20-row logistic dataset CSV for the csv experiment."""
    cfg = ExperimentConfig.from_dict({"experiment": "logistic", "n_data": 20, "seed": 1,
                                      "outdir": str(tmp_path_factory.mktemp("data"))})
    return run_gen_data(cfg)


def choice_payload(experiment, solver, csv_path, outdir):
    """A tiny valid config of ``experiment`` and ``solver`` that sets every
    field."""
    return dict(experiment=experiment, solver=solver, k_list=[3], trials=1, seed=1,
                s_count=30, outdir=str(outdir), dim=2, n_data=20, csv_path=str(csv_path),
                csv_kind="logistic", max_iters=50, rel_tol=1e-5, batch_fraction=0.2,
                vanilla_step=0.5, record_timing=False, rip_budget=10 ** 6,
                near_orthonormal=False)


# Another valid value of every field that some subcommand and choice leave
# unread; experiment, seed and outdir are read by each of them.
CHANGED = dict(solver="aiht_batched", k_list=[4], trials=2, s_count=40, dim=3, n_data=25,
               csv_path="elsewhere.csv", csv_kind="poisson", max_iters=60, rel_tol=1e-3,
               batch_fraction=0.5, vanilla_step=1.0, record_timing=True, rip_budget=5,
               near_orthonormal=True)
RUNS = {"gen-data": run_gen_data, "build": run_build, "sweep": run_sweep}


def test_each_choice_names_the_fields_only_it_reads(tmp_path):
    for table in (cli.EXPERIMENTS, cli.SOLVERS):
        assert set().union(*table.values()) <= set(CHANGED)
        # A field every choice reads is read whatever the choice: no row names it.
        assert not frozenset.intersection(*table.values())
    counts = {command: {} for command in RUNS}
    for experiment, solver in PAIRS:
        cfg = ExperimentConfig.from_dict(choice_payload(experiment, solver, "d.csv", tmp_path))
        for command in RUNS:
            reads = cli._reads(cfg, command)
            assert reads <= cli._READS[command]
            counts[command][experiment, solver] = len(reads)
    assert {command: (min(c.values()), max(c.values())) for command, c in counts.items()} == {
        "gen-data": (4, 5), "build": (7, 12), "sweep": (8, 13)}
    # The benchmark's workloads: gaussian-paper, logistic-wide, radial-basis.
    assert [counts["sweep"][e, "aiht"] for e in ("gaussian", "logistic", "radial_basis")] == [
        12, 12, 11]
    cfg = ExperimentConfig.from_dict(choice_payload("radial_basis", "uniform", "d.csv", tmp_path))
    assert cli._reads(cfg, "theory-check") == cli._READS["theory-check"]


def output_bytes(outdir) -> dict:
    return {p.name: p.read_bytes() for p in sorted(Path(outdir).iterdir())}


CHOICE_RUNS = [("gen-data", experiment, "aiht") for experiment in cli.EXPERIMENTS] + [
    (command, experiment, solver) for command in ("build", "sweep")
    for experiment, solver in PAIRS]


@pytest.mark.parametrize("command,experiment,solver", CHOICE_RUNS,
                         ids=[" ".join(run) for run in CHOICE_RUNS])
def test_fields_outside_the_read_set_change_no_output(dataset_csv, tmp_path, command,
                                                      experiment, solver):
    # The table against the code: every field outside the read set takes
    # another valid value, and every output keeps its bytes, recorded config
    # included, which holds the read fields only.
    outdir = tmp_path / "out"
    payload = choice_payload(experiment, solver, dataset_csv, outdir)
    cfg = ExperimentConfig.from_dict(payload)
    reads = cli._reads(cfg, command)
    RUNS[command](cfg)
    first = output_bytes(outdir)
    for name, text in first.items():
        if name.endswith(".json"):
            assert set(json.loads(text)["config"]) == reads, name
        elif command == "sweep":
            assert set(json.loads(text.decode().splitlines()[0][len("# config="):])) == reads
    changed = {name: value for name, value in CHANGED.items() if name not in reads}
    assert changed
    RUNS[command](ExperimentConfig.from_dict({**payload, **changed}))
    assert output_bytes(outdir) == first


@pytest.mark.parametrize("argv,config,message", [
    (["sweep", "--experiment", "gaussian", "--solver", "aiht", "--step", "5",
      "--batch-fraction", "0.5"], {},
     "sweep with experiment gaussian and solver aiht does not read config fields "
     "['batch_fraction', 'vanilla_step']"),
    (["sweep", "--experiment", "radial_basis", "--solver", "uniform", "--dim", "9",
      "--s-count", "3", "--rel-tol", "7"], {},
     "sweep with experiment radial_basis and solver uniform does not read config fields "
     "['dim', 'rel_tol', 's_count']"),
    (["build", "--solver", "uniform", "--k", "3"],
     {"experiment": "csv", "csv_path": "d.csv", "csv_kind": "logistic", "n_data": 20},
     "build with experiment csv and solver uniform does not read config fields "
     "['n_data']"),
    (["gen-data", "--experiment", "radial_basis", "--dim", "3"], {"n_data": 30},
     "gen-data with experiment radial_basis does not read config fields ['dim']"),
], ids=["sweep_step_and_batch_fraction", "sweep_radial_basis_uniform", "build_csv_n_data",
        "gen_data_radial_basis_dim"])
def test_field_the_choice_does_not_read_is_refused(tmp_path, capsys, argv, config, message):
    # A setting the chosen experiment or solver never reads would be
    # recorded in the output as if it had been used.
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(config))
    assert main([*argv, "--config", str(cfg_file), "--outdir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_evaluate_drops_recorded_fields_its_input_never_read(tmp_path, capsys,
                                                             logistic_build):
    # Outputs written before recorded configs were cut to the read set carry
    # such fields, so evaluate drops them rather than refusing the file.
    payload = json.loads(logistic_build.read_text())
    recorded = payload["config"]
    payload["config"] = {**recorded, "rip_budget": 5, "near_orthonormal": True,
                         "batch_fraction": 0.5, "csv_kind": "poisson"}
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(payload))
    assert main(["evaluate", "--weights", str(edited), "--outdir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    metrics = json.loads((tmp_path / "out" / "edited_metrics.json").read_text())
    assert metrics["config"] == recorded
    assert metrics["metrics"] == payload["metrics"]


@pytest.mark.parametrize("magnitude", ["1e100", "1e200"])
@pytest.mark.parametrize("kind,labels", [("logistic", (1, -1, -1, 1, 1, -1)),
                                         ("poisson", (1, 0, 2, 0, 1, 3))],
                         ids=["logistic", "poisson"])
def test_typed_fit_error_of_a_sweep_exits_one_without_a_traceback(tmp_path, capsys, kind,
                                                                  labels, magnitude):
    # The full-data fit runs outside each run's own error record; features
    # of +-1e100 leave the Newton fit no acceptable step, and at +-1e200 its
    # gradient and Hessian products overflow, which must reach the fit's own
    # checks rather than stop the sweep with a RuntimeWarning.
    data_path = tmp_path / "big.csv"
    data_path.write_text("x0,y\n" + "".join(
        f"{sign}{magnitude},{label}\n" for sign, label in zip(["", "-"] * 3, labels)))
    assert main(["sweep", "--experiment", "csv", "--csv-path", str(data_path),
                 "--csv-kind", kind, "--k", "2", "--s-count", "20",
                 "--outdir", str(tmp_path / "out"), "--no-timing"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: NewtonConvergenceError: Newton did not converge")
    assert captured.err.count("\n") == 1


def test_overflowing_conjugate_fit_of_a_sweep_exits_one_without_a_traceback(tmp_path, capsys):
    # At +-1e200 the linear-regression Hessian product overflows; the
    # conjugate fit ends with the typed error, not a RuntimeWarning or the
    # untyped check of the fitted mean.
    data_path = tmp_path / "big.csv"
    data_path.write_text("x0,y\n" + "".join(
        f"{sign}1e200,{label}\n" for sign, label in zip(["", "-"] * 3, range(6))))
    assert main(["sweep", "--experiment", "csv", "--csv-path", str(data_path),
                 "--csv-kind", "linear_regression", "--k", "2", "--s-count", "20",
                 "--outdir", str(tmp_path / "out"), "--no-timing"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: CurvatureError: negative Hessian of the log joint "
                            "is not finite\n")


CSV_COMMANDS = {"gen-data": ["gen-data"], "build": ["build", "--k", "1", "--s-count", "20"],
                "sweep": ["sweep", "--k", "1", "--s-count", "20"]}


@pytest.mark.parametrize("command", CSV_COMMANDS.values(), ids=CSV_COMMANDS)
def test_csv_label_outside_the_kind_exits_one(tmp_path, capsys, command):
    # The loader reads any numeric target; the model made of the CSV refuses
    # a label outside its kind's domain before anything is written.
    data_path = tmp_path / "bad.csv"
    data_path.write_text("x0,y\n0.5,1\n-0.5,2\n")
    outdir = tmp_path / "out"
    assert main([*command, "--experiment", "csv", "--csv-path", str(data_path),
                 "--csv-kind", "logistic", "--outdir", str(outdir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: logistic labels must be in {-1, +1}\n"
    assert not outdir.exists()


@pytest.mark.parametrize("command", [["gen-data"], ["sweep", "--k", "2", "--s-count", "20"]],
                         ids=["gen-data", "sweep"])
def test_overflowing_target_variance_exits_one_without_a_traceback(tmp_path, capsys, command):
    # The squares of +-1e200 overflow, so the linear_regression noise
    # variance, the targets' variance, is refused before any output exists.
    data_path = tmp_path / "big.csv"
    data_path.write_text("x0,y\n0.5,1e200\n-0.5,-1e200\n1.0,1e200\n2.0,-1e200\n")
    outdir = tmp_path / "out"
    assert main([*command, "--experiment", "csv", "--csv-path", str(data_path),
                 "--csv-kind", "linear_regression", "--outdir", str(outdir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: linear_regression noise variance (the targets' variance) "
                            "is not finite\n")
    assert not outdir.exists()


@pytest.mark.parametrize("command", CSV_COMMANDS.values(), ids=CSV_COMMANDS)
def test_non_finite_csv_field_exits_one_naming_its_line(tmp_path, capsys, command):
    data_path = tmp_path / "bad.csv"
    data_path.write_text("x0,y\n0.5,1\nnan,-1\n")
    outdir = tmp_path / "out"
    assert main([*command, "--experiment", "csv", "--csv-path", str(data_path),
                 "--csv-kind", "logistic", "--outdir", str(outdir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {data_path}: line 3: non-finite field\n"
    assert not outdir.exists()


def test_typed_fit_error_of_evaluate_exits_one_without_a_traceback(tmp_path, capsys,
                                                                   logistic_build):
    # A weight of 1e300 passes evaluate's finite, non-negative check, and the
    # coreset fit's negative Hessian is then no longer positive definite.
    payload = json.loads(logistic_build.read_text())
    payload["values"][0] = 1e300
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(payload))
    assert main(["evaluate", "--weights", str(huge), "--outdir", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: CurvatureError: negative Hessian of the log joint is not "
                            "positive definite\n")
    assert not (tmp_path / "out").exists()


def run_python(code, cwd=None):
    """stdout of ``python -c code`` with this package on the path."""
    src = Path(coreset_iht.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120, cwd=cwd)
    return out.stdout.strip()


def test_cli_import_loads_no_scipy():
    # The package runs on numpy alone; scipy is a test-only dependency.
    code = ("import sys, coreset_iht.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    assert run_python(code) == "[]"


def test_sweep_loads_no_numpy_ma(tmp_path):
    # np.median and np.percentile import numpy.ma on first use, which a
    # fresh sweep process would pay for its aggregate CSV alone.
    code = ("import sys; from coreset_iht.cli import main; "
            "main(['sweep', '--experiment', 'gaussian', '--dim', '2', '--n-data', '20', "
            "'--s-count', '30', '--k', '3,5', '--trials', '3', '--outdir', 'out', "
            "'--no-timing']); "
            "print([m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')])")
    assert run_python(code, cwd=tmp_path).splitlines()[-1] == "[]"
    assert (tmp_path / "out" / "aggregate_gaussian_aiht.csv").exists()


@pytest.mark.parametrize("kind", ["float", "int"])
def test_quantiles_match_numpy_bit_for_bit(kind):
    rng = np.random.default_rng(3)
    for n in range(1, 41):
        for _ in range(25):
            if kind == "float":
                values = list(rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9))
            else:
                values = [int(v) for v in rng.integers(0, 10 ** 12, n)]
            want = (np.median(values), np.percentile(values, 25), np.percentile(values, 75))
            got = cli._quantiles(values)
            assert np.array_equal(np.array(got).view(np.int64),
                                  np.array(want, dtype=np.float64).view(np.int64)), values


def test_quantiles_of_non_finite_values_match_numpy():
    for values in ([np.nan, 1.0, 2.0], [np.inf], [-np.inf, np.inf], [1.0, np.inf, np.inf],
                   [-np.inf, 0.0, 2.0, np.inf]):
        with np.errstate(invalid="ignore"):
            want = (np.median(values), np.percentile(values, 25), np.percentile(values, 75))
        np.testing.assert_array_equal(cli._quantiles(values), want)
