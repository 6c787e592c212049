"""Checks on the files a sweep writes. Each returns a list of problems; an
empty list means the outputs are correct. A failed (trial, k) run is an
outcome, counted by the caller, not a check failure."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

KL_KEYS = ("fkl", "rkl", "skl")
# skl is computed as fkl + rkl from the same two posteriors.
SKL_SUM_RTOL = 1e-9
# Relative tolerance for a re-evaluated objective and for recomputed CSV cells.
OBJECTIVE_RTOL = 1e-9
AGGREGATE_RTOL = 1e-12


def load_runs(outdir: Path) -> list:
    return [json.loads(p.read_text(encoding="utf-8")) for p in sorted(outdir.glob("run_*.json"))]


def _finite_nonneg(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x) and x >= 0


def check_runs(runs: list, trials: int, k_list: list, n: int) -> list:
    """Every (trial, k) ran once; every successful run has non-negative
    weights on at most k distinct in-range indices, a finite objective and
    finite non-negative divergences."""
    problems = []
    seen = sorted((r["trial"], r["k"]) for r in runs)
    if seen != sorted((t, k) for t in range(trials) for k in k_list):
        problems.append(f"runs cover {seen}, expected every (trial, k)")
    for r in runs:
        if "error" in r:
            continue
        tag = f"trial {r['trial']} k {r['k']}"
        support, values = r["support"], r["values"]
        if len(support) != len(values):
            problems.append(f"{tag}: {len(support)} indices for {len(values)} values")
        if len(support) > r["k"]:
            problems.append(f"{tag}: support {len(support)} exceeds k")
        if len(set(support)) != len(support) or any(not 0 <= i < n for i in support):
            problems.append(f"{tag}: support indices repeat or leave [0, {n})")
        if not all(_finite_nonneg(v) for v in values):
            problems.append(f"{tag}: a weight is negative or not finite")
        if not (isinstance(r.get("objective"), float) and math.isfinite(r["objective"])):
            problems.append(f"{tag}: objective {r.get('objective')!r} is not finite")
        metrics = r["metrics"]
        for key in KL_KEYS + ("map_l2",):
            if not _finite_nonneg(metrics.get(key)):
                problems.append(f"{tag}: {key}={metrics.get(key)!r} is not finite and >= 0")
        if all(_finite_nonneg(metrics.get(key)) for key in KL_KEYS):
            total = metrics["fkl"] + metrics["rkl"]
            if abs(metrics["skl"] - total) > SKL_SUM_RTOL * max(total, 1e-300):
                problems.append(f"{tag}: skl differs from fkl + rkl")
    return problems


def _cells_from_runs(good: list) -> list:
    def col(key):
        return [r["metrics"][key] for r in good]

    cells = []
    for key in ("fkl", "rkl"):
        values = col(key)
        cells += [np.median(values), np.percentile(values, 25), np.percentile(values, 75)]
    cells += [np.median(col("skl")), np.median(col("map_l2")),
              np.median([r["time_ns"] for r in good])]
    return [float(c) for c in cells]


def check_aggregate(csv_path: Path, runs: list, k_list: list) -> list:
    """The aggregate CSV's medians and quartiles equal a recomputation from
    the per-run JSON, and its trial counts exclude failed runs."""
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("# config="):
        return [f"{csv_path.name}: first line is not the config comment"]
    header, rows = lines[1].split(","), [line.split(",") for line in lines[2:]]
    if [int(row[header.index("k")]) for row in rows] != list(k_list):
        return [f"{csv_path.name}: rows are not one per k in order"]
    problems = []
    for row in rows:
        k = int(row[header.index("k")])
        good = [r for r in runs if r["k"] == k and "error" not in r]
        if int(row[header.index("trial_count")]) != len(good):
            problems.append(f"k {k}: trial_count {row[3]} but {len(good)} successful runs")
            continue
        if not good:
            continue
        expected = _cells_from_runs(good)
        for name, want in zip(header[4:], expected):
            got = float(row[header.index(name)])
            if not math.isclose(got, want, rel_tol=AGGREGATE_RTOL, abs_tol=0.0):
                problems.append(f"k {k}: {name} is {got!r}, recomputed {want!r}")
    return problems


def check_objectives(runs: list, solves: list) -> list:
    """The reported objective of every successful run equals ||y - phi w||^2
    re-evaluated for its weights. ``solves`` are the traced solver calls,
    each with its k, weights and the re-evaluated objective; a run is matched
    to the call that returned its weights."""
    by_weights = {(s["k"], tuple(sorted(zip(s["support"], s["values"])))): s for s in solves}
    problems = []
    for r in runs:
        if "error" in r:
            continue
        tag = f"trial {r['trial']} k {r['k']}"
        solve = by_weights.get((r["k"], tuple(sorted(zip(r["support"], r["values"])))))
        if solve is None:
            problems.append(f"{tag}: no traced solver call returned its weights")
        elif abs(r["objective"] - solve["objective"]) > OBJECTIVE_RTOL * solve["y_sq"]:
            problems.append(f"{tag}: objective {r['objective']!r} "
                            f"but the weights give {solve['objective']!r}")
    return problems


def results_of(runs: list) -> dict:
    """The deterministic part of each run: everything but the timings."""
    out = {}
    for r in runs:
        kept = {key: r[key] for key in ("support", "values", "objective", "metrics",
                                        "termination", "error") if key in r}
        if "trace" in r:
            kept["iters"] = len(r["trace"]["records"])
        out[(r["trial"], r["k"])] = kept
    return out


def check_same_files(dir_a: Path, dir_b: Path) -> list:
    """Both directories hold the same file names with identical bytes."""
    names_a = sorted(p.name for p in dir_a.iterdir())
    names_b = sorted(p.name for p in dir_b.iterdir())
    if names_a != names_b:
        return [f"file sets differ: {names_a} vs {names_b}"]
    return [f"{name} differs" for name in names_a
            if (dir_a / name).read_bytes() != (dir_b / name).read_bytes()]
