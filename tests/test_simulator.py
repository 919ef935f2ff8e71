"""Closed-loop simulation: cycle pipeline, artifact persistence, failure isolation."""

from __future__ import annotations

import dataclasses
import errno
import json
import os
import signal
import subprocess
import threading

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
    simulator,
)
from cisched.domain import ExecutionRecord, Outcome
from cisched.execution import TestPlan

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


@pytest.fixture(autouse=True)
def writers(monkeypatch):
    """The writer processes a test starts; none may outlive its run."""
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    yield started
    running = [proc for proc in started if proc.poll() is None]
    for proc in running:
        proc.kill()
        proc.wait()
    assert not running


@pytest.fixture(params=[1, 2], ids=["in-process", "writer-process"])
def cpus(request, monkeypatch):
    """The CPU count the simulator sees: one writes the files in process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)))
    return request.param


def artifact_bytes(out) -> dict:
    """Every file of a run directory but timings.jsonl, by relative path."""
    return {
        str(p.relative_to(out)): p.read_bytes()
        for p in out.rglob("*")
        if p.is_file() and p.name != "timings.jsonl"
    }


def timing_cycles(out) -> list[int]:
    lines = (out / "timings.jsonl").read_text(encoding="utf-8").splitlines()
    return [json.loads(line)["cycle"] for line in lines]


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
    executed = [t.id for t in tests if state.history.last.get(t.id) == 0]
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


def test_cycle_error_after_the_first_logs_every_earlier_cycle(tmp_path, monkeypatch, cpus, writers):
    # Cycle 2 fails: cycles 0 and 1 are in the log, each with its whole
    # directory, as a clean two-cycle run writes them.
    tests, agents = small_repo()
    clean = tmp_path / "clean"
    run_simulation(config(cycles=2, out_dir=str(clean)), tests, agents)
    real = simulator._schedule_cycle

    def schedule_cycle(state):
        if state.history.current_cycle == 2:
            raise ValueError("no schedule")
        return real(state)

    monkeypatch.setattr(simulator, "_schedule_cycle", schedule_cycle)
    out = tmp_path / "failing"
    with pytest.raises(CycleError) as err:
        run_simulation(config(cycles=4, out_dir=str(out)), tests, agents)
    assert err.value.cycle == 2
    assert artifact_bytes(out) == artifact_bytes(clean)
    assert timing_cycles(out) == [0, 1]
    assert len(writers) == 2 * (cpus - 1)


@pytest.mark.parametrize("agent_id", ["a" * 256, "a\0b"], ids=["name-too-long", "nul"])
def test_write_error_names_the_file_and_ends_the_log_at_the_cycle_before(
    tmp_path, monkeypatch, cpus, writers, agent_id
):
    # From cycle 1 on, an extra plan goes to an agent whose plan file cannot
    # be made: its name is longer than NAME_MAX (255 bytes), or holds a NUL.
    tests, agents = small_repo()
    clean = tmp_path / "clean"
    run_simulation(config(cycles=1, out_dir=str(clean)), tests, agents)
    real = simulator._finish_cycle

    def finish_cycle(state, scheduled):
        artifacts = real(state, scheduled)
        cycle = artifacts.report.cycle
        if cycle == 0:
            return artifacts
        return dataclasses.replace(artifacts, plans=artifacts.plans + (TestPlan(agent_id, cycle, ()),))

    monkeypatch.setattr(simulator, "_finish_cycle", finish_cycle)
    out = tmp_path / "run"
    with pytest.raises((OSError, ValueError)) as err:
        run_simulation(config(cycles=3, out_dir=str(out)), tests, agents)
    # The error is the one that opening the file here raises.
    path = str(out / "cycle_1" / f"plan_{agent_id}.json")
    with pytest.raises(type(err.value)) as direct:
        open(path, "wb")
    assert type(err.value) is type(direct.value)
    assert str(err.value) == str(direct.value)
    if type(err.value) is not ValueError:
        assert err.value.errno == errno.ENAMETOOLONG
        assert err.value.filename == path
    assert (out / "history.jsonl").read_bytes() == (clean / "history.jsonl").read_bytes()
    assert timing_cycles(out) == [0]
    written = artifact_bytes(out)
    assert {k: v for k, v in written.items() if not k.startswith("cycle_1")} == artifact_bytes(clean)
    assert "cycle_1/report.json" not in written
    assert not (out / "cycle_2").exists()
    assert len(writers) == 2 * (cpus - 1)


def test_a_writer_that_dies_raises(tmp_path, monkeypatch, writers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    tests, agents = small_repo()
    real = simulator._schedule_cycle

    def schedule_cycle(state):
        if state.history.current_cycle == 1:
            writers[0].kill()
            writers[0].wait()
        return real(state)

    monkeypatch.setattr(simulator, "_schedule_cycle", schedule_cycle)
    out = tmp_path / "run"
    with pytest.raises(OSError, match="cycle writer exited with status -9"):
        run_simulation(config(cycles=3, out_dir=str(out)), tests, agents)
    # Cycle 0 is logged only if its files were acknowledged before the kill.
    logged = load_history(out / "history.jsonl").current_cycle
    assert logged <= 1
    assert all((out / f"cycle_{n}" / "report.json").is_file() for n in range(logged))
    assert not (out / "cycle_2").exists()
    assert len(writers) == 1


def test_the_log_trails_the_loop_by_at_most_the_frames_in_flight(tmp_path, monkeypatch, cpus):
    # When cycle n starts, every logged cycle has its whole directory, and
    # at most IN_FLIGHT + 1 earlier cycles are not logged yet: those sent
    # and the one held. In process, none.
    tests, agents = small_repo()
    clean = tmp_path / "clean"
    run_simulation(config(cycles=5, out_dir=str(clean)), tests, agents)
    out = tmp_path / "run"
    real = simulator._schedule_cycle
    behind = []

    def schedule_cycle(state):
        cycle = state.history.current_cycle
        logged = timing_cycles(out)
        assert logged == list(range(len(logged)))
        for n in logged:
            rel = f"cycle_{n}"
            assert {k: v for k, v in artifact_bytes(out).items() if k.startswith(rel + "/")} == {
                k: v for k, v in artifact_bytes(clean).items() if k.startswith(rel + "/")
            }
        behind.append(cycle - len(logged))
        return real(state)

    monkeypatch.setattr(simulator, "_schedule_cycle", schedule_cycle)
    run_simulation(config(cycles=5, out_dir=str(out)), tests, agents)
    assert max(behind) <= (simulator._CycleWriter.IN_FLIGHT + 1 if cpus > 1 else 0)
    assert artifact_bytes(out) == artifact_bytes(clean)


def test_put_does_not_wait_for_a_writer_one_frame_behind(tmp_path, monkeypatch, writers):
    # The writer is stopped from the start of cycle 0 to the start of
    # cycle 2, so it writes nothing meanwhile: cycle 0 is sent, cycle 1 is
    # held and cycle 2 starts all the same. A put that waited would see the
    # writer resumed after 10 s and fail the check below.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    tests, agents = small_repo()
    out = tmp_path / "run"
    real = simulator._schedule_cycle
    seen = []

    def resume():
        if writers[0].returncode is None:
            os.kill(writers[0].pid, signal.SIGCONT)

    backstop = threading.Timer(10.0, resume)

    def schedule_cycle(state):
        cycle = state.history.current_cycle
        if cycle == 0:
            os.kill(writers[0].pid, signal.SIGSTOP)
            backstop.start()
        if cycle == 2:
            seen.append((timing_cycles(out), (out / "cycle_0").exists()))
            resume()
        return real(state)

    monkeypatch.setattr(simulator, "_schedule_cycle", schedule_cycle)
    try:
        run_simulation(config(cycles=3, out_dir=str(out)), tests, agents)
    finally:
        backstop.cancel()
        resume()
    assert seen == [([], False)]
    assert timing_cycles(out) == [0, 1, 2]


def test_the_writer_pipe_holds_the_frames_in_flight(tmp_path, monkeypatch, writers):
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_GETPIPE_SZ"):
        pytest.skip("pipe capacity is a Linux fcntl")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    tests, agents = small_repo()
    real = simulator._schedule_cycle
    sizes = []

    def schedule_cycle(state):
        sizes.append(fcntl.fcntl(writers[0].stdin.fileno(), fcntl.F_GETPIPE_SZ))
        return real(state)

    monkeypatch.setattr(simulator, "_schedule_cycle", schedule_cycle)
    run_simulation(config(cycles=2, out_dir=str(tmp_path / "run")), tests, agents)
    assert sizes == [simulator._CycleWriter.PIPE_BYTES] * 2


def test_the_loop_waits_for_the_writer_only_between_emit_and_execute(
    tmp_path, monkeypatch, cpus, writers
):
    # The writer is stopped for the first 0.2 s, so cycle 3 must wait for
    # it: cycles 0 and 1 are out. Every wait but those of the last flush
    # falls after a cycle's plans are emitted and before they run, never
    # right before a cycle starts.
    tests, agents = small_repo()
    events = []
    schedule, finish = simulator._schedule_cycle, simulator._finish_cycle

    def schedule_cycle(state):
        if state.history.current_cycle == 0 and writers:
            os.kill(writers[0].pid, signal.SIGSTOP)
            resume.start()
        events.append("schedule")
        return schedule(state)

    def finish_cycle(state, scheduled):
        events.append("finish")
        return finish(state, scheduled)

    collect = simulator._CycleWriter._collect

    def record(self, wait):
        if wait:
            events.append("wait")
        return collect(self, wait)

    resume = threading.Timer(0.2, lambda: os.kill(writers[0].pid, signal.SIGCONT))
    monkeypatch.setattr(simulator, "_schedule_cycle", schedule_cycle)
    monkeypatch.setattr(simulator, "_finish_cycle", finish_cycle)
    monkeypatch.setattr(simulator._CycleWriter, "_collect", record)
    run_simulation(config(cycles=6, out_dir=str(tmp_path / "run")), tests, agents)
    if writers:
        resume.join()
    while events[-1] == "wait":
        events.pop()
    if cpus > 1:
        assert events[:9] == ["schedule", "finish"] * 3 + ["schedule", "wait", "finish"]
    else:
        assert events == ["schedule", "finish"] * 6
    for before, after in zip(events, events[1:]):
        if after == "wait":
            assert before in ("schedule", "wait")


def test_two_runs_are_byte_identical(tmp_path, monkeypatch, writers):
    # The first run writes its files in a writer process, the second, on
    # one CPU, in process.
    tests, agents = small_repo()
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    run_simulation(config(cycles=3, out_dir=str(out_a)), tests, agents)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    run_simulation(config(cycles=3, out_dir=str(out_b)), tests, agents)
    assert len(writers) == 1
    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*.json*"))
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*.json*"))
    assert files_a == files_b
    for rel in files_a:
        if rel.name == "timings.jsonl":
            continue
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel
