"""Tests of the benchmark itself, on tiny versions of its workloads.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Same experiment and solver as each real workload, at a size that runs in a
# second or two.
TINY = {
    "gaussian-paper": ("--experiment", "gaussian", "--dim", "3", "--n-data", "20",
                       "--s-count", "50", "--k", "2,4"),
    "logistic-wide": ("--experiment", "logistic", "--dim", "2", "--n-data", "200",
                      "--s-count", "40", "--k", "3,6"),
    "radial-basis": ("--experiment", "radial_basis", "--n-data", "80",
                     "--s-count", "40", "--k", "3,6"),
}


def tiny(name: str) -> run.Workload:
    args = TINY[name]
    assert args[:2] == run.WORKLOADS[name].sweep_args[:2]
    return run._workload(args, trials=2)


@pytest.fixture
def quick(monkeypatch, tmp_path):
    """Fewer set-up probes and repeats, tiny workloads, outputs under tmp."""
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "MIN_REPS", 2)
    monkeypatch.setattr(run, "WORKDIR", tmp_path)
    monkeypatch.setattr(run, "WORKLOADS", {name: tiny(name) for name in TINY})
    return tmp_path


def last_json_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert set(TINY) == set(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_smoke_run_of_each_workload(quick, name):
    record = run.measure(name, run.WORKLOADS[name], seed=3, seconds=0, trace=False,
                         workdir=quick / name)
    assert record["problems"] == []
    assert record["failed"] == 0 and record["attempted"] == 2 * 2 * 2
    assert set(record["metrics"]) == set(run.END_TO_END)
    assert all(value > 0 for value in record["metrics"].values())


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_equal_benchmark_json(quick, capsys, trace, key):
    code = run.main(["--workload", "radial-basis", "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)])
    line = last_json_line(capsys)
    assert code == 0 and line["correct"] is True
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    printed = {name: m["unit"] for name, m in line["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in BENCHMARK[key]}


def test_traced_spans_nest(quick):
    workdir = quick / "gaussian-paper"
    record = run.measure("gaussian-paper", run.WORKLOADS["gaussian-paper"], seed=2,
                         seconds=0, trace=True, workdir=workdir)
    assert record["problems"] == []
    spans = json.loads((workdir / "spans.json").read_text(encoding="utf-8"))
    by_id = {s["id"]: s for s in spans}
    (root,) = [s for s in spans if s["parent"] is None]
    assert root["name"] == tracing.ROOT_SPAN
    assert {s["run"] for s in spans} == {root["run"]}
    for s in spans:
        if s is root:
            continue
        parent = by_id[s["parent"]]
        assert parent["start_ns"] <= s["start_ns"] <= s["end_ns"] <= parent["end_ns"]
        assert tracing.self_ns(s, tracing.children_of(spans, s["id"])) >= 0
    assert tracing.self_ns(root, tracing.children_of(spans, root["id"])) >= 0
    names = {s["name"] for s in spans}
    assert {"models.full_data_posterior", "models.build_projection",
            "solvers.solve_aiht_debias", "evaluation.coreset_kl",
            "evaluation.map_l2_distance", tracing.TO_PROBLEM_SPAN} <= names


def test_check_spans_reports_a_child_outside_its_parent():
    spans = [
        {"name": "root", "id": 0, "parent": None, "run": "r", "start_ns": 0, "end_ns": 10},
        {"name": "child", "id": 1, "parent": 0, "run": "r", "start_ns": 5, "end_ns": 12},
        {"name": "other", "id": 2, "parent": 0, "run": "s", "start_ns": 1, "end_ns": 2},
    ]
    problems = tracing.check_spans(spans)
    assert any("outside its parent" in p for p in problems)
    assert any("run id" in p for p in problems)


def test_self_time_subtracts_overlapping_children_once():
    root = {"start_ns": 0, "end_ns": 100}
    children = [{"start_ns": 10, "end_ns": 30}, {"start_ns": 20, "end_ns": 40},
                {"start_ns": 90, "end_ns": 120}]
    assert tracing.self_ns(root, children) == 100 - 30 - 10


def test_output_checks_catch_tampering(quick):
    workdir = quick / "logistic-wide"
    record = run.measure("logistic-wide", run.WORKLOADS["logistic-wide"], seed=1,
                         seconds=0, trace=False, workdir=workdir)
    assert record["problems"] == []
    outdir = workdir / "sweep0"
    runs = checks.load_runs(outdir)
    csv_path = next(outdir.glob("aggregate_*.csv"))
    k_list = list(run.WORKLOADS["logistic-wide"].k_list)
    assert checks.check_aggregate(csv_path, runs, k_list) == []
    shutil.copytree(outdir, workdir / "copy")
    assert checks.check_same_files(outdir, workdir / "copy") == []

    lines = csv_path.read_text(encoding="utf-8").splitlines()
    cells = lines[2].split(",")
    cells[4] = repr(float(cells[4]) * 1.001)
    csv_path.write_text("\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n",
                        encoding="utf-8")
    assert checks.check_aggregate(csv_path, runs, k_list)
    assert checks.check_same_files(outdir, workdir / "copy") == [f"{csv_path.name} differs"]

    bad = json.loads(json.dumps(runs))
    bad[0]["values"][0] = -1.0
    bad[1]["metrics"]["skl"] = float("nan")
    bad[2]["support"] = bad[2]["support"] * 2
    problems = checks.check_runs(bad, 2, k_list, n=200)
    assert len(problems) >= 3


def test_objective_check_matches_runs_to_traced_solves():
    solves = [{"k": 2, "support": [0, 3], "values": [0.5, 1.0], "objective": 2.0, "y_sq": 10.0}]
    run_ok = {"trial": 0, "k": 2, "support": [3, 0], "values": [1.0, 0.5], "objective": 2.0}
    assert checks.check_objectives([run_ok, {"trial": 1, "k": 2, "error": "x"}], solves) == []
    (problem,) = checks.check_objectives([dict(run_ok, objective=2.1)], solves)
    assert "the weights give 2.0" in problem
    (problem,) = checks.check_objectives([dict(run_ok, values=[1.0, 0.25])], solves)
    assert "no traced solver call" in problem


def test_bare_directory_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in Path(run.HERE).glob("*.py"):
        shutil.copy(path, bench / path.name)
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gaussian-paper",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
