"""Closed-loop measurement of one workload, end to end or traced per layer.

One client runs the workload's op list back to back, in whole passes, until
the run has lasted at least the requested seconds and at least MIN_PASSES
passes. Every op's result goes through the correctness gate of
``workloads.py``. Set-up time is measured in fresh child processes that stop
once the first op is ready.
"""
from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import fgplate
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 3
MIN_PASSES = 3


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest nearest-rank percentile that has at
    least ten samples beyond it; the median when fewer than 21 samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure(plan, seconds: float) -> dict:
    """Run the plan's op list in whole passes until ``seconds`` have passed
    and at least MIN_PASSES passes have run."""
    tasks = [task for tasks_in_round in plan.rounds for task in tasks_in_round]
    passes = []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
        op_seconds, statuses = [], []
        for task in tasks:
            begin = perf_counter()
            outcome = workloads.run_task(plan, task, fgplate)
            op_seconds.extend([(perf_counter() - begin) / len(outcome)] * len(outcome))
            statuses.extend(outcome)
        passes.append({"op_seconds": op_seconds, "statuses": statuses})
    return {"passes": passes, "tasks": [task.describe() for task in tasks],
            "elapsed": perf_counter() - start}


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time from spawning a fresh interpreter to its first op being ready."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_RUNS):
        start = perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            times.append(perf_counter() - start)
            child.stdout.read()
            child.wait(timeout=170)
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
    return times


def probe(workload: str, seed: int) -> None:
    workloads.build_plan(workload, seed, fgplate)
    print("ready", flush=True)


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = ROOT / ".git" / text[5:]
    if ref.is_file():
        return ref.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + text[5:]):
                return line.split()[0]
    return None


def environment(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
    }


def _summary(run: dict) -> dict:
    """Time metrics use each op's least time over the passes: other tenants
    of the machine only ever slow an op down, and a slow spell rarely covers
    every pass of the same op. Shares count every execution."""
    passes = run["passes"]
    least = [min(times) for times in zip(*(p["op_seconds"] for p in passes))]
    statuses = [s for p in passes for s in p["statuses"]]
    ok = statuses.count("ok")
    value, percentile = tail(least)
    return {
        "ops_per_s": ok / len(passes) / sum(least),
        "op_s.p50": statistics.median(least),
        "op_s.tail": value,
        "tail_percentile": percentile,
        "samples": len(least),
        "passes": len(passes),
        "executions": len(statuses),
        "ok_share": ok / len(statuses),
        "elapsed_s": run["elapsed"],
    }


def main(workload: str, seed: int, seconds: float, trace: bool) -> int:
    record = {"environment": environment(workload, seed)}
    if trace:
        plan = workloads.build_plan(workload, seed, fgplate)
        runs = [measure(plan, seconds / 2.0)]
        tracer = Tracer(fgplate)
        tracer.install()
        try:
            if workload == "station-map":
                # traced set-up, so the per-layer figures include the disk solves
                plan = workloads.build_plan(workload, seed, fgplate)
            runs.append(measure(plan, seconds / 2.0))
        finally:
            tracer.uninstall()
        plain, traced = (_summary(run) for run in runs)
        metrics = tracer.metrics(traced["executions"])
        metrics["trace.overhead_share"] = (1.0 - traced["ops_per_s"] / plain["ops_per_s"], "1")
        record.update(untraced=plain, traced=traced)
    else:
        setups = setup_seconds(workload, seed)
        plan = workloads.build_plan(workload, seed, fgplate)
        runs = [measure(plan, seconds)]
        summary = _summary(runs[0])
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (summary["ops_per_s"], "1/s"),
            "op_s.p50": (summary["op_s.p50"], "s"),
            "op_s.tail": (summary["op_s.tail"], "s"),
            "ok_share": (summary["ok_share"], "1"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        record.update(summary, setup_runs_s=setups)
    statuses = [s for run in runs for p in run["passes"] for s in p["statuses"]]
    record["ops"] = runs[0]["tasks"]
    record["op_seconds"] = [p["op_seconds"] for run in runs for p in run["passes"]]
    print(json.dumps({"record": record}))
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            raise RuntimeError(f"metric {name} is not finite: {value}")
    print(json.dumps({
        "correct": "wrong" not in statuses,
        "attempted": len(statuses),
        "failed": len(statuses) - statuses.count("ok"),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0
