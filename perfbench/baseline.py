"""Measure a baseline: the benchmark on several seeds per workload.

    python3 perfbench/baseline.py --out perfbench/baseline.json

For each workload in BENCHMARK.json this makes RUNS end-to-end runs
(``--trace 0``), seeds 0, 1, ..., and one traced run (``--trace 1``, seed 0), one after the
other. It writes, per workload and metric, the median, quartiles and sample
count over the runs, and the spread: the distance between the quartiles as a
share of the median, as ``statistics.quantiles(values, n=4)`` gives them.
The spread of every end-to-end metric but ``setup_s`` has to stay within
its bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def spread(values: list) -> dict:
    q25, _, q75 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q25": q25, "q75": q75, "n": len(values),
            "spread": (q75 - q25) / med if med else None}


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """One benchmark run; returns its result line and full record."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                         f"{proc.stdout}{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench_work" / workload / "record.json").read_text())
    return line, record


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    out = {"run_seconds": config["run_seconds"], "seeds": list(range(RUNS)),
           "workloads": {}}
    for workload in (w["name"] for w in config["workloads"]):
        values, reports = {}, []
        for seed in range(RUNS):
            line, record = bench(workload, seed, config["run_seconds"], 0)
            if not line["correct"]:
                raise SystemExit(f"{workload} seed {seed}: outputs failed their checks")
            for name, metric in line["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            reports.append({"seed": seed, **record["report"]})
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        traced_line, traced = bench(workload, 0, config["run_seconds"], 1)
        stats = {name: spread(v) for name, v in values.items()}
        for name, s in stats.items():
            s["bound"] = bounds[name]
            s["within_third_of_bound"] = s["spread"] is not None and s["spread"] < bounds[name] / 3
        out["workloads"][workload] = {
            "end_to_end": stats,
            "per_run_report": reports,
            "per_layer_seed0": {k: v["value"] for k, v in traced_line["metrics"].items()},
            "per_layer_correct": traced_line["correct"],
        }
        out["environment"] = traced["environment"]
        args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
        for name, s in stats.items():
            print(f"  {name:16s} median {s['median']:.6g} spread {s['spread']:.4f} "
                  f"bound {s['bound']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
