"""Run the benchmark over several seeds and write a summary with its spread.

    python3 perfbench/baseline.py --seeds 1 2 3 4 5 6 7 8 9 10 [--workloads ...]
        [--out perfbench/baseline.json]

Each workload runs once per seed with ``--trace 0`` and once with
``--trace 1`` at the first seed, for ``run_seconds`` from BENCHMARK.json.
For every end-to-end metric the summary gives the median, the quartiles of
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, next to the metric's bound.
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


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True).stdout.splitlines()
    return {"record": json.loads(out[-2])["record"], "result": json.loads(out[-1])}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv: list[str]) -> None:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in config["workloads"]])
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args(argv)

    seconds = config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    report = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run(workload, seed, seconds, 0))
            print(workload, seed, json.dumps(runs[-1]["result"]), flush=True)
        traced = run(workload, args.seeds[0], seconds, 1)
        print(workload, "traced", json.dumps(traced["result"]), flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            summary[name] = {**spread(values), "bound": bound, "values": values}
        report["workloads"][workload] = {
            "end_to_end": summary,
            "failed": [r["result"]["failed"] for r in runs],
            "attempted": [r["result"]["attempted"] for r in runs],
            "tail_percentile": [r["record"]["tail_percentile"] for r in runs],
            "per_layer": traced["result"]["metrics"],
            "environment": runs[0]["record"]["environment"],
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
