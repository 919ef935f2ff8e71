"""Closed-loop simulation: cycle pipeline, artifact persistence, failure isolation."""

from __future__ import annotations

import json

import pytest

from cisched import (
    CycleError,
    HistoryStore,
    OutcomeModel,
    PriorityWeights,
    SchedulerKind,
    SimulationConfig,
    SimulationState,
    append_history,
    load_history,
    load_plan,
    load_report,
    load_result,
    run_cycle,
    run_simulation,
)
from cisched.domain import ExecutionRecord, Outcome

from helpers import make_agent, make_test


def small_repo():
    tests = [
        make_test("t0", duration=2.0, static=0.9, agents=("a0", "a1")),
        make_test("t1", duration=3.0, static=0.5, agents=("a0", "a1")),
        make_test("t2", duration=4.0, static=0.2, agents=("a1",)),
        make_test("t3", duration=1.0, static=0.7, agents=("a0",), active=False),
    ]
    agents = [make_agent("a0", budget=6.0), make_agent("a1", budget=6.0)]
    return tests, agents


def config(**overrides) -> SimulationConfig:
    base = dict(
        cycles=2,
        scheduler=SchedulerKind.OPTIMAL,
        weights=PriorityWeights(),
        outcome_model=OutcomeModel({}, default_probability=0.2, seed=9),
        solver_time_budget_ms=200,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def test_run_cycle_advances_history():
    tests, agents = small_repo()
    state = SimulationState(tests, agents, HistoryStore(), config())
    report = run_cycle(state)
    assert state.history.current_cycle == 1
    assert report.cycle == 0
    assert report.executed_count == report.scheduled_count > 0
    assert report.dropped_tests == 3 - report.scheduled_count
    executed = [t.id for t in tests if state.history.last_execution(t.id) == 0]
    assert len(executed) == report.executed_count
    assert "t3" not in executed


def test_simulation_config_validation():
    with pytest.raises(ValueError):
        config(cycles=0)
    with pytest.raises(ValueError):
        config(weights=PriorityWeights(w_static=-1))


def test_run_simulation_writes_artifacts(tmp_path):
    tests, agents = small_repo()
    out = tmp_path / "run"
    reports = run_simulation(config(out_dir=str(out)), tests, agents)
    assert len(reports) == 2

    for cycle, report in enumerate(reports):
        saved = load_report(out / f"cycle_{cycle}" / "report.json")
        assert saved.cycle == cycle
        assert saved.overall_utilization == report.overall_utilization
        for plan_file in (out / f"cycle_{cycle}").glob("plan_*.json"):
            plan = load_plan(plan_file)
            assert plan.cycle == cycle
            result = load_result(plan_file.with_name(f"result_{plan.agent_id}.json"))
            assert [r.test_id for r in result.records] == [
                e.test_id for e in plan.entries
            ]

    store = load_history(out / "history.jsonl")
    assert store.current_cycle == 2
    lines = (out / "history.jsonl").read_text(encoding="utf-8").splitlines()
    kinds = [json.loads(line)["type"] for line in lines]
    assert kinds.count("record") == sum(r.executed_count for r in reports)

    timings = [
        json.loads(line)
        for line in (out / "timings.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert [t["cycle"] for t in timings] == [0, 1]
    assert all("solver_wall_time_ms" in t for t in timings)


def test_run_simulation_replays_prior_history(tmp_path):
    tests, agents = small_repo()
    prior = tmp_path / "prior.jsonl"
    append_history(prior, [ExecutionRecord("t0", "a0", 0, Outcome.PASS, 2.0)], 0)
    out = tmp_path / "resumed"
    reports = run_simulation(config(cycles=1, out_dir=str(out)), tests, agents, prior)
    assert reports[0].cycle == 1
    log = (out / "history.jsonl").read_text(encoding="utf-8")
    assert log.startswith(prior.read_text(encoding="utf-8"))
    assert load_history(out / "history.jsonl").current_cycle == 2
    assert (out / "cycle_1" / "report.json").exists()
    assert not (out / "cycle_0").exists()


def test_greedy_and_optimal_schedulers_both_run(tmp_path):
    tests, agents = small_repo()
    greedy = run_simulation(config(scheduler=SchedulerKind.GREEDY), tests, agents)
    optimal = run_simulation(config(), tests, agents)
    assert len(greedy) == len(optimal) == 2
    for g, o in zip(greedy, optimal):
        assert o.overall_utilization >= 0.0
        assert g.executed_count > 0


def test_timings_record_the_density_seed(tmp_path):
    # Priority is the static priority alone: first-fill takes the long
    # top test and strands the budget, the density fill takes the pair.
    tests = [
        make_test("ta", duration=6.0, static=0.5),
        make_test("tb", duration=5.0, static=0.45),
        make_test("tc", duration=5.0, static=0.45),
    ]
    weights = PriorityWeights(w_staleness=0.0, w_duration=0.0, w_results=0.0, w_static=1.0)
    out = tmp_path / "run"
    run_simulation(
        config(cycles=1, weights=weights, out_dir=str(out)), tests, [make_agent("a0")]
    )
    (timing,) = [
        json.loads(line)
        for line in (out / "timings.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert timing["seed"] == "density"
    report = (out / "cycle_0" / "report.json").read_text(encoding="utf-8")
    assert "seed" not in json.loads(report)
    assert load_plan(out / "cycle_0" / "plan_a0.json").entries[0].test_id == "tb"


def test_timings_record_the_stop(tmp_path):
    tests, agents = small_repo()
    stops = {}
    for scheduler in SchedulerKind:
        out = tmp_path / scheduler.value
        run_simulation(config(scheduler=scheduler, out_dir=str(out)), tests, agents)
        stops[scheduler] = [
            json.loads(line)["stop"]
            for line in (out / "timings.jsonl").read_text(encoding="utf-8").splitlines()
        ]
    # A greedy cycle runs no search; these small searches finish.
    assert stops == {SchedulerKind.GREEDY: [None, None], SchedulerKind.OPTIMAL: ["exhausted"] * 2}


def test_cycle_error_carries_cycle_and_leaves_history_clean(tmp_path):
    tests = [make_test("t0", duration=50.0, obligatory=True)]
    agents = [make_agent("a0", budget=10.0)]
    out = tmp_path / "failing"
    with pytest.raises(CycleError) as err:
        run_simulation(config(cycles=1, out_dir=str(out)), tests, agents)
    assert err.value.cycle == 0
    assert (out / "history.jsonl").read_text(encoding="utf-8") == ""
    assert not (out / "cycle_0").exists()


def test_two_runs_are_byte_identical(tmp_path):
    tests, agents = small_repo()
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_simulation(config(cycles=3, out_dir=str(out_a)), tests, agents)
    run_simulation(config(cycles=3, out_dir=str(out_b)), tests, agents)
    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*.json*"))
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*.json*"))
    assert files_a == files_b
    for rel in files_a:
        if rel.name == "timings.jsonl":
            continue
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel
