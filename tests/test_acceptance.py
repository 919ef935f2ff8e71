"""End-to-end acceptance gates for the scheduler, simulator, and artifact formats.

Each test prints one PASS/FAIL line for its criterion; the terminal summary
repeats them after the run.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from cisched import (
    ExecutionRecord,
    HistoryStore,
    InfeasibleError,
    Outcome,
    OutcomeModel,
    PriorityWeights,
    SchedulerKind,
    SimulationConfig,
    TestAgent,
    TestCase,
    WorkloadSpec,
    build_instance,
    emit_test_plans,
    execute_plan,
    generate_workload,
    prioritize_all,
    run_simulation,
    schedule_greedy,
    schedule_oracle,
    solve_detailed,
)
from cisched.codec import encode
from cisched.execution import load_plan, load_result, save_plan, save_result
from cisched.reporting import (
    campaign_summary,
    make_cycle_report,
    save_report,
)
from cisched.scheduling import check_schedule

from conftest import ACCEPTANCE_RESULTS
from helpers import (
    make_agent,
    make_test,
    objective_tuple,
    random_instance,
    src_env,
    trap_instance,
)


@contextmanager
def criterion(name):
    ok = False
    try:
        yield
        ok = True
    finally:
        ACCEPTANCE_RESULTS[name] = ok
        print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_oracle_equivalence():
    with criterion("criterion 1: exact solver matches exhaustive oracle"):
        start = time.perf_counter()
        rng = np.random.Generator(np.random.PCG64(0xACC1))
        feasible = infeasible = 0
        for _ in range(200):
            instance = random_instance(
                rng,
                max_tests=8,
                max_agents=3,
                densities=(0.3, 0.6, 1.0),
                max_obligatory=2,
                time_budget_ms=500,
            )
            try:
                want = schedule_oracle(instance)
            except InfeasibleError as err:
                infeasible += 1
                with pytest.raises(InfeasibleError) as got_err:
                    solve_detailed(instance)
                assert got_err.value.test_ids == err.test_ids
                continue
            feasible += 1
            got, _ = solve_detailed(instance)
            assert got.objective == want.objective
        elapsed = time.perf_counter() - start
        assert feasible > 0 and infeasible > 0, (feasible, infeasible)
        assert elapsed < 60.0, elapsed


def test_criterion_2_greedy_dominance():
    # Obligatory tests are excluded here: the first-fill baseline ignores
    # them by design, so on instances where they crowd out its picks the
    # constrained optimum is not comparable. Criterion 1 covers obligatory
    # handling; this criterion measures pure packing quality.
    with criterion("criterion 2: exact solver dominates first-fill baseline"):
        rng = np.random.Generator(np.random.PCG64(0xACC2))
        for _ in range(1000):
            instance = random_instance(
                rng,
                max_tests=50,
                max_agents=5,
                densities=(0.3, 0.6, 1.0),
                max_obligatory=0,
                time_budget_ms=20,
            )
            greedy = schedule_greedy(instance)
            got, _ = solve_detailed(instance)
            assert objective_tuple(got) >= objective_tuple(greedy)

        strict = 0
        for scale in (0.5, 1.0, 2.0, 5.0):
            instance = trap_instance(scale=scale, time_budget_ms=100)
            greedy = schedule_greedy(instance)
            got, _ = solve_detailed(instance)
            assert objective_tuple(got) >= objective_tuple(greedy)
            if objective_tuple(got) > objective_tuple(greedy):
                strict += 1
        assert strict >= 1, strict


def test_criterion_3_dense_workload_utilization():
    with criterion("criterion 3: dense workload utilization"):
        start = time.perf_counter()
        spec = WorkloadSpec(
            test_count=480,
            agent_count=3,
            duration_min=0.4,
            duration_max=2.0,
            compatibility_density=0.9,
            obligatory_fraction=0.0,
            defect_min=0.01,
            defect_max=0.2,
            budget=60.0,
            seed=87,
        )
        tests, agents, model = generate_workload(spec)

        total_budget = sum(a.budget for a in agents)
        total_duration = sum(t.avg_duration for t in tests)
        assert total_duration >= 3 * total_budget
        assert max(t.avg_duration for t in tests) <= 0.05 * min(a.budget for a in agents)
        density = sum(len(t.compatible_agents) for t in tests) / (len(tests) * len(agents))
        assert density >= 0.8, density

        config = SimulationConfig(
            cycles=87,
            scheduler=SchedulerKind.OPTIMAL,
            weights=PriorityWeights(),
            outcome_model=model,
            solver_time_budget_ms=150,
        )
        reports = run_simulation(config, tests, agents)
        elapsed = time.perf_counter() - start

        utilizations = [r.overall_utilization for r in reports]
        assert len(utilizations) == 87
        assert min(utilizations) >= 0.91, min(utilizations)
        high = sum(u >= 0.99 for u in utilizations) / len(utilizations)
        assert high > 0.5, high
        assert elapsed < 300.0, elapsed


def _rotation_counts(out_dir, cycles):
    counts: dict[str, int] = {}
    for cycle in range(cycles):
        plans = list((out_dir / f"cycle_{cycle}").glob("plan_*.json"))
        assert len(plans) == 1
        plan = load_plan(plans[0])
        assert [e.test_id for e in plan.entries] == ["t0"]
        counts[plan.agent_id] = counts.get(plan.agent_id, 0) + 1
    return counts


def test_criterion_4_rotation(tmp_path):
    with criterion("criterion 4: assignment rotation"):
        tests = [make_test("t0", duration=1.0, agents=("a0", "a1", "a2", "a3"))]
        agents = [make_agent(f"a{j}", budget=10.0) for j in range(4)]
        # Static-only weights keep the priority constant across cycles.
        weights = PriorityWeights(w_staleness=0, w_duration=0, w_results=0, w_static=1)

        def run(cycles, name):
            out = tmp_path / name
            config = SimulationConfig(
                cycles=cycles,
                scheduler=SchedulerKind.OPTIMAL,
                weights=weights,
                outcome_model=OutcomeModel({}, seed=4),
                out_dir=str(out),
            )
            run_simulation(config, tests, agents)
            return _rotation_counts(out, cycles)

        assert run(4, "four") == {f"a{j}": 1 for j in range(4)}
        assert run(8, "eight") == {f"a{j}": 2 for j in range(4)}


def test_criterion_5_priority_dynamics(tmp_path):
    with criterion("criterion 5: priority dynamics"):
        weights = PriorityWeights()
        assert weights.w_results > 0
        tests = [
            make_test("tfail", duration=1.0, static=0.5),
            make_test("tpass", duration=1.0, static=0.5),
        ]
        agents = [make_agent("a0", budget=10.0)]
        config = SimulationConfig(
            cycles=2,
            scheduler=SchedulerKind.OPTIMAL,
            weights=weights,
            outcome_model=OutcomeModel({"tfail": 1.0, "tpass": 0.0}, seed=1),
            out_dir=str(tmp_path / "dyn"),
        )
        run_simulation(config, tests, agents)

        plan = load_plan(tmp_path / "dyn" / "cycle_1" / "plan_a0.json")
        priorities = {e.test_id: e.priority for e in plan.entries}
        assert set(priorities) == {"tfail", "tpass"}
        assert priorities["tfail"] > priorities["tpass"]

        # Unexecuted for exactly `cap` cycles: staleness saturates at 1.0,
        # which a staleness-only weighting gives as the priority itself.
        cap = weights.staleness_cap
        store = HistoryStore()
        store.add_cycle([ExecutionRecord("tfail", "a0", 0, Outcome.PASS, 1.0)])
        for _ in range(cap - 1):
            store.add_cycle([])
        stale_only = PriorityWeights(
            w_staleness=1.0, w_duration=0.0, w_results=0.0, w_static=0.0, staleness_cap=cap
        )
        [ranked] = prioritize_all(tests[:1], store, stale_only, store.current_cycle)
        assert ranked.priority == 1.0


CRITERION_6_CONFIG = (
    "workload:\n"
    "  test_count: 30\n"
    "  agent_count: 3\n"
    "  budget: 20.0\n"
    "simulation:\n"
    "  cycles: 5\n"
)


def test_criterion_6_determinism(tmp_path):
    with criterion("criterion 6: deterministic artifacts"):
        config = tmp_path / "config.yaml"
        config.write_text(CRITERION_6_CONFIG, encoding="utf-8")
        outs = []
        for name in ("first", "second"):
            out = tmp_path / name
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "cisched.cli",
                    "simulate",
                    "--config",
                    str(config),
                    "--out",
                    str(out),
                    "--seed",
                    "17",
                ],
                capture_output=True,
                text=True,
                env=src_env(),
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out)

        first, second = outs
        names_first = sorted(p.relative_to(first) for p in first.rglob("*.json*"))
        names_second = sorted(p.relative_to(second) for p in second.rglob("*.json*"))
        assert names_first == names_second
        assert any(p.name == "report.json" for p in names_first)
        assert any(p.name == "history.jsonl" for p in names_first)
        for rel in names_first:
            if rel.name == "timings.jsonl":
                continue  # measured wall times, excluded from the contract
            assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel


# SHA-256 over every file criterion 6's run and its CSV report write, except
# timings.jsonl. Pinned before the codec's per-class writer replaced
# json.dumps, so a layout drift between commits fails here, where
# criterion 6, which compares two runs of one commit, cannot see it.
PINNED_ARTIFACT_SHA256 = "caa1bff2b43c5e5ab399c2c2758157b65df79c690ffa502b9abc4ea58483c051"


def test_artifact_bytes_match_the_pinned_digest(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text(CRITERION_6_CONFIG, encoding="utf-8")
    run = tmp_path / "run"
    for argv in (
        ["simulate", "--config", str(config), "--out", str(run), "--seed", "17"],
        ["report", "--in", str(run), "--out", str(run / "summary"), "--format", "csv"],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "cisched.cli", *argv],
            capture_output=True,
            text=True,
            env=src_env(),
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256()
    for rel in sorted(p.relative_to(run).as_posix() for p in run.rglob("*") if p.is_file()):
        if rel == "timings.jsonl":
            continue  # measured wall times, excluded from the contract
        data = (run / rel).read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    assert digest.hexdigest() == PINNED_ARTIFACT_SHA256


def test_determinism_at_the_largest_benchmarked_size(tmp_path):
    # Criterion 6 at 2000x16, where reruns repeat only if every search
    # stops at its node budget or exhausts its tree, never at the wall
    # deadline.
    config = tmp_path / "config.yaml"
    config.write_text(
        "workload: {test_count: 2000, agent_count: 16, budget: 720.0}\n"
        "solver: {time_budget_ms: 100}\n"
        "simulation: {cycles: 3}\n",
        encoding="utf-8",
    )
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable, "-m", "cisched.cli", "simulate",
                "--config", str(config), "--out", str(out), "--seed", "17",
            ],
            capture_output=True,
            text=True,
            env=src_env(),
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})

    timings = [json.loads(row) for out in outs for row in out.pop(Path("timings.jsonl")).splitlines()]
    first, second = outs
    assert first.keys() == second.keys()
    assert [rel for rel in first if first[rel] != second[rel]] == []
    assert len(timings) == 6
    assert all(row["stop"] in ("node_budget", "exhausted") for row in timings), timings


def _anytime_instance():
    # Obligatory tests are left out so the first-fill baseline is a valid
    # floor; the search tree is far too deep to exhaust in the budget.
    rng = np.random.Generator(np.random.PCG64(0xACC7))
    agent_ids = [f"a{j}" for j in range(4)]
    tests = []
    for i in range(200):
        mask = rng.random(4) < 0.7
        if not mask.any():
            mask[int(rng.integers(4))] = True
        tests.append(
            TestCase(
                id=f"t{i:03d}",
                avg_duration=float(round(rng.uniform(0.5, 6.0), 3)),
                static_priority=float(round(rng.uniform(0.0, 1.0), 3)),
                compatible_agents=frozenset(
                    agent_ids[j] for j in range(4) if mask[j]
                ),
            )
        )
    agents = [TestAgent(id=a, budget=60.0) for a in agent_ids]
    ranked = prioritize_all(tests, HistoryStore(), PriorityWeights(), 0)
    return build_instance(ranked, agents, {}, 0, solver_time_budget_ms=100)


def test_criterion_7_anytime_deadline():
    with criterion("criterion 7: anytime deadline"):
        instance = _anytime_instance()
        assert len(instance.prioritized) == 200

        start = time.perf_counter()
        got, stats = solve_detailed(instance)
        elapsed = time.perf_counter() - start

        assert elapsed < 0.150, elapsed
        assert not stats.completed
        check_schedule(got, instance)
        greedy = schedule_greedy(instance)
        assert objective_tuple(got) >= objective_tuple(greedy)


def test_criterion_8_round_trip(tmp_path):
    with criterion("criterion 8: serialization round-trip"):
        rng = np.random.Generator(np.random.PCG64(0xACC8))
        written = []
        reports = []
        for k in range(100):
            instance = random_instance(
                rng, max_tests=30, min_tests=5, max_agents=4, max_obligatory=0
            )
            schedule = schedule_greedy(instance)
            cycle = instance.current_cycle
            plans = emit_test_plans(
                schedule, instance.prioritized, instance.agents, cycle
            )
            model = OutcomeModel({}, default_probability=0.1, seed=k)
            for plan in plans:
                path = tmp_path / f"case_{k}" / f"plan_{plan.agent_id}.json"
                save_plan(plan, path)
                assert load_plan(path) == plan
                written.append(path)

                result = execute_plan(plan, model)
                path = tmp_path / f"case_{k}" / f"result_{plan.agent_id}.json"
                save_result(result, path)
                assert load_result(path) == result
                written.append(path)
            if k < 3:
                results = [execute_plan(p, model) for p in plans]
                report = make_cycle_report(
                    cycle, schedule, instance.prioritized, instance.agents, results
                )
                path = tmp_path / f"case_{k}" / "report.json"
                save_report(report, path)
                written.append(path)
                reports.append(report)

        summary_path = tmp_path / "campaign_summary.json"
        summary_path.write_text(
            json.dumps(encode(campaign_summary(reports)), indent=2) + "\n",
            encoding="utf-8",
        )
        written.append(summary_path)

        assert len(written) > 100
        for path in written:
            data = json.loads(path.read_text(encoding="utf-8"))
            assert data["format_version"] == 1, path
