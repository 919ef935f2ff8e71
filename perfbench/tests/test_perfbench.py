"""Tests of the pipeline benchmark itself: every path at toy size, and its references.

Run from the repository root: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import cisched.simulator  # noqa: E402
from cisched import (  # noqa: E402
    InfeasibleError,
    PrioritizedTest,
    TestAgent,
    TestCase,
    build_instance,
    schedule_oracle,
    solve_detailed,
)
from perfbench import bench, quality  # noqa: E402


def random_instance(rng: np.random.Generator, tests: int, agents: int, cycle: int = 3):
    agent_ids = [f"a{j}" for j in range(agents)]
    cases = []
    for i in range(tests):
        mask = rng.random(agents) < 0.7
        if not mask.any():
            mask[rng.integers(agents)] = True
        cases.append(
            TestCase(
                id=f"t{i:02d}",
                avg_duration=float(round(rng.uniform(0.5, 5.0), 3)),
                static_priority=0.5,
                compatible_agents=frozenset(a for a, m in zip(agent_ids, mask) if m),
                obligatory=bool(rng.random() < 0.15),
            )
        )
    prioritized = sorted(
        (PrioritizedTest(t, float(round(rng.uniform(0.0, 1.0), 4))) for t in cases),
        key=lambda p: (-p.priority, p.test.id),
    )
    pool = [TestAgent(id=a, budget=float(round(rng.uniform(3.0, 9.0), 3))) for a in agent_ids]
    pairs = {(t.id, a): int(rng.integers(cycle)) for t in cases for a in t.compatible_agents if rng.random() < 0.3}
    return build_instance(prioritized, pool, pairs, cycle, solver_time_budget_ms=50)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_smoke_runs_every_workload_path(name, trace):
    result = bench.run(name, seed=5, seconds=0, trace=trace, root=ROOT, import_s=0.0, smoke=True)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 2
    spec = bench.PER_LAYER if trace else bench.END_TO_END
    assert list(result["metrics"]) == [entry[0] for entry in spec]
    assert {m["unit"] for m in result["metrics"].values()} <= {entry[1] for entry in spec}
    if trace:
        assert result["metrics"]["trace.digest_mismatches"]["value"] == 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values()), result["metrics"]
    assert not (ROOT / ".perfbench_work" / f"{name}-{os.getpid()}").exists()
    # Every swapped name is back.
    assert cisched.simulator.filter_eligible is cisched.domain.filter_eligible
    assert cisched.solver.PackedInstance is cisched.scheduling.PackedInstance is quality.PackedInstance


def test_deterministic_outputs_repeat_across_runs():
    first = bench.run("anytime-tight", seed=2, seconds=0, trace=False, root=ROOT, import_s=0.0, smoke=True)
    second = bench.run("anytime-tight", seed=2, seconds=0, trace=True, root=ROOT, import_s=0.0, smoke=True)
    assert first["meta"]["digests"] == second["meta"]["digests"]
    assert len(first["meta"]["digests"]) == 1


def test_pooled_bound_is_never_below_the_oracle_optimum():
    rng = np.random.Generator(np.random.PCG64(11))
    checked = 0
    for _ in range(60):
        instance = random_instance(rng, tests=int(rng.integers(1, 8)), agents=int(rng.integers(1, 4)))
        try:
            best = schedule_oracle(instance)
        except InfeasibleError:
            continue
        checked += 1
        bound = quality.pooled_fractional_bound(instance.prioritized, instance.agents)
        assert bound >= quality.scheduled_priority_units(best.assignments, instance.prioritized)
        assert quality.priority_gap_pct(best.assignments, instance.prioritized, instance.agents) >= 0.0
    assert checked >= 30


def test_solver_never_falls_below_its_feasible_seed():
    rng = np.random.Generator(np.random.PCG64(12))
    for budget in (1, 50, 5000):
        for _ in range(15):
            instance = random_instance(rng, tests=int(rng.integers(10, 40)), agents=int(rng.integers(2, 5)))
            try:
                schedule, _ = solve_detailed(instance, backend="python", node_budget=budget)
            except InfeasibleError:
                continue
            problems, gain = quality.check_optimal(schedule.assignments, instance)
            assert problems == []
            assert gain >= 0.0


def test_checker_reports_each_violation_and_counts_drops():
    a = TestAgent(id="a", budget=5.0)
    b = TestAgent(id="b", budget=5.0)
    t1 = TestCase("t1", 3.0, 0.5, frozenset({"a"}), obligatory=True)
    t2 = TestCase("t2", 3.0, 0.5, frozenset({"a", "b"}))
    t3 = TestCase("t3", 1.0, 0.5, frozenset({"b"}), obligatory=True)
    prioritized = [PrioritizedTest(t, 0.5) for t in (t1, t2, t3)]
    problems, dropped = quality.check_assignments({"a": ("t1", "t2")}, prioritized, [a, b])
    assert problems == ["agent 'a' over budget: 6000000 > 5000000 us"] and dropped == 1
    problems, _ = quality.check_assignments({"b": ("t1", "t2", "t2"), "c": ("t3",)}, prioritized, [a, b])
    assert any("incompatible" in p for p in problems)
    assert any("placed twice" in p for p in problems)
    assert any("unknown agent" in p for p in problems)
    assert quality.check_assignments({"a": ("t1",), "b": ("t2", "t3")}, prioritized, [a, b]) == ([], 0)


def test_tail_has_ten_samples_beyond_it_or_is_the_maximum():
    samples = [float(v) for v in range(40)]
    assert bench.tail(samples) == (29.0, 75.0, 10)
    assert bench.tail(samples[:12]) == (1.0, 100.0 * 2 / 12, 10)
    assert bench.tail(samples[:10]) == (9.0, 100.0, 0)


def test_benchmark_json_matches_the_metric_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"][:2] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in doc["workloads"]] == list(bench.WORKLOADS)
    assert [tuple(m.values()) for m in doc["end_to_end"]] == bench.END_TO_END
    assert [tuple(m.values()) for m in doc["per_layer"]] == bench.PER_LAYER


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "greedy-campaign", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
