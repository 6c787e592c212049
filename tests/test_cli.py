import csv
import json
from pathlib import Path

import numpy as np
import pytest

from coreset_iht import EnumerationBudgetError, load_csv_dataset, models
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
        cfg = tiny_config("/tmp/x", momentum_formula="halved_argmin", workers=2)
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg

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

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"mystery_knob": 1})

    def test_flag_precedence_over_file(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(tiny_config(tmp_path, trials=5).to_json())
        import argparse
        ns = argparse.Namespace(config=str(cfg_file), trials=2, k="7")
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
        assert json.loads(header[len("# config="):]) == cfg.to_dict()
        for p in result.run_paths:
            payload = json.loads(p.read_text())
            assert payload["config"] == cfg.to_dict()
            assert "seed" in payload

    def test_failures_recorded_and_sweep_continues(self, tmp_path):
        cfg = tiny_config(tmp_path, solver="vanilla")  # vanilla_step unset
        result = run_sweep(cfg)
        assert result.failures == len(result.run_paths) == 6
        for p in result.run_paths:
            assert "error" in json.loads(p.read_text())
        _, rows = read_aggregate(result.csv_path)
        assert all(r["trial_count"] == "0" for r in rows)

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
                          n_data=30, s_count=50, basis_scales=[0.5, 1.0],
                          per_scale_count=2)
        result = run_sweep(cfg)
        assert result.failures == 0
        trials, ks = cfg.trials, len(cfg.k_list)
        assert fits == {"full": trials, "coreset": trials * ks}

    def test_parallel_trials_match_sequential(self, tmp_path):
        cfg_seq = tiny_config(tmp_path / "seq")
        cfg_par = tiny_config(tmp_path / "par", workers=3)
        seq = run_sweep(cfg_seq)
        par = run_sweep(cfg_par)
        _, rows_seq = read_aggregate(seq.csv_path)
        _, rows_par = read_aggregate(par.csv_path)
        for a, b in zip(rows_seq, rows_par):
            for col in CSV_COLUMNS[4:]:
                assert a[col] == b[col]


class TestTheoryCheck:
    def test_small_instance_completes(self, tmp_path):
        cfg = tiny_config(tmp_path, n_data=8, k_list=[2], s_count=30, seed=3)
        path = run_theory_check(cfg)
        payload = json.loads(path.read_text())
        assert payload["report"]["all_satisfied"] is True
        assert payload["brute_force_objective"] <= 1e-16
        assert set(payload["rip"]["levels"]) == {2, 4, 6, 8}

    def test_budget_refusal(self, tmp_path):
        cfg = tiny_config(tmp_path, n_data=8, k_list=[2], s_count=30, rip_budget=1)
        with pytest.raises(EnumerationBudgetError):
            run_theory_check(cfg)


class TestDataAndBuild:
    def test_gen_data_round_trip(self, tmp_path):
        cfg = tiny_config(tmp_path, experiment="logistic", dim=2, n_data=15)
        path = run_gen_data(cfg)
        ds = load_csv_dataset(path, "logistic")
        assert ds.n == 15 and ds.d == 2

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
        rc = main(["theory-check", "--n-data", "8", "--k", "2", "--s-count", "30",
                   "--rip-budget", "1", "--outdir", str(tmp_path)])
        assert rc == 2
        assert "refused" in capsys.readouterr().err

    def test_sweep_failures_exit_one(self, tmp_path):
        rc = main(["sweep", "--experiment", "gaussian", "--solver", "vanilla",
                   "--k", "4", "--trials", "1", "--seed", "0", "--s-count", "80",
                   "--dim", "3", "--n-data", "15", "--outdir", str(tmp_path),
                   "--no-timing"])
        assert rc == 1

    def test_evaluate_missing_weights_file_exits_one(self, tmp_path, capsys):
        rc = main(["evaluate", "--weights", str(tmp_path / "absent.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_sweep_missing_config_file_exits_one(self, tmp_path, capsys):
        rc = main(["sweep", "--config", str(tmp_path / "absent.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_evaluate_failed_run_exits_one(self, tmp_path, capsys):
        # vanilla without --step fails every run; its run JSON has no weights.
        rc = main(["sweep", "--experiment", "gaussian", "--solver", "vanilla",
                   "--k", "4", "--trials", "1", "--seed", "0", "--s-count", "80",
                   "--dim", "3", "--n-data", "15", "--outdir", str(tmp_path),
                   "--no-timing"])
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

    @pytest.mark.parametrize("case", ["index_past_end", "negative_index", "fractional_index",
                                      "duplicate_index", "length_mismatch", "no_trial"])
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
        else:
            del payload["trial"]
        bad = tmp_path / f"{case}.json"
        bad.write_text(json.dumps(payload))
        assert main(["evaluate", "--weights", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{case}.json" in err

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
