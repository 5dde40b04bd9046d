"""Tests of the benchmark itself: smoke pass, gate sensitivity, seeding.

    python3 -m pytest perfbench/test_perfbench.py -q
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import fgplate  # noqa: E402

import bench  # noqa: E402
import workloads as W  # noqa: E402


@pytest.fixture(scope="module")
def plans():
    cache = {}

    def get(workload, seed=1):
        if (workload, seed) not in cache:
            cache[workload, seed] = W.build_plan(workload, seed, fgplate)
        return cache[workload, seed]

    return get


def _cheapest_case_task(plan):
    return min(plan.rounds[0], key=lambda task: (task.config.elements, task.ops))


@pytest.mark.parametrize("workload", ["table-11", "fine-mesh"])
def test_case_workload_smoke_pass(plans, workload):
    plan = plans(workload)
    task = _cheapest_case_task(plan)
    assert W.run_task(plan, task, fgplate) == ["ok"] * task.ops


def test_station_map_smoke_pass_counts_library_failures(plans):
    plan = plans("station-map")
    seed_failed = W.load_reference("station-map")["seed_failed"]
    listed = [task for tasks in plan.rounds for task in tasks]
    failing = [task for task in listed if seed_failed[task.net, task.index]]
    # the known locate_point defect on the rational disk: a failed op, not a wrong one
    assert len(failing) == W.FAILING_STATIONS
    for task in failing + listed[:4]:
        expected = "raised" if seed_failed[task.net, task.index] else "ok"
        assert W.run_task(plan, task, fgplate) == [expected]


def test_perturbed_case_reference_is_flagged(plans):
    plan = plans("table-11")
    task = _cheapest_case_task(plan)
    key = W.n_key(task.n[0])
    saved = plan.expected[task.base][key]
    plan.expected[task.base][key] = [v * (1.0 + 1e-6) for v in saved]
    try:
        assert W.run_task(plan, task, fgplate)[0] == "wrong"
    finally:
        plan.expected[task.base][key] = saved


def test_perturbed_station_reference_is_flagged(plans):
    plan = plans("station-map")
    task = plan.rounds[0][1]
    saved = plan.expected[task.net, task.index].copy()
    plan.expected[task.net, task.index, 4] *= 1.0 + 1e-6
    try:
        assert W.run_task(plan, task, fgplate) == ["wrong"]
    finally:
        plan.expected[task.net, task.index] = saved


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_seeds_give_different_op_lists(plans, workload):
    def ops(seed):
        return [task.describe() for tasks in plans(workload, seed).rounds[:4] for task in tasks]

    assert ops(1) == [task.describe() for tasks in W.build_plan(workload, 1, fgplate).rounds[:4]
                      for task in tasks]
    assert ops(1) != ops(2)


def test_tail_has_ten_samples_beyond_it():
    samples = list(np.arange(100.0))
    assert bench.tail(samples) == (89.0, 90.0)
    assert bench.tail(samples[:12]) == (5.5, 50.0)


def test_command_prints_result_line():
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "table-11", "--seed", "3",
         "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=True).stdout.splitlines()
    result = json.loads(out[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 3 * 12  # at least three passes over a 12-case list
    assert set(result["metrics"]) == {"setup_s", "ops_per_s", "op_s.p50", "op_s.tail",
                                      "ok_share", "peak_rss_mb"}
    assert json.loads(out[-2])["record"]["environment"]["seed"] == 3
