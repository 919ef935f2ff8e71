"""Plan emission, simulated execution, result collection, serialization."""

from __future__ import annotations

import json

import numpy as np
import pytest

from cisched import (
    AgentResult,
    DuplicateRecordError,
    ExecutionRecord,
    HistoryStore,
    ObjectiveVector,
    Outcome,
    OutcomeModel,
    PlanEntry,
    PrioritizedTest,
    Schedule,
    TestPlan,
    append_history,
    collect_results,
    emit_test_plans,
    execute_plan,
    load_history,
    load_plan,
    load_result,
    plan_path,
    result_path,
    save_plan,
    save_result,
)
from cisched.codec import FORMAT_VERSION, decode, encode
from cisched.execution import _entry_seed

from helpers import history_readers, make_agent, make_test


def sample_schedule():
    prioritized = [
        PrioritizedTest(make_test("t0", duration=2.0, agents=("a0", "a1")), 0.9),
        PrioritizedTest(make_test("t1", duration=1.0, agents=("a0", "a1")), 0.7),
        PrioritizedTest(make_test("t2", duration=3.0, agents=("a0", "a1")), 0.4),
    ]
    schedule = Schedule(
        assignments={"a0": ("t0", "t2"), "a1": ("t1",), "a2": ()},
        objective=ObjectiveVector(2.0, 3.0, 6.0),
    )
    agents = [make_agent("a0"), make_agent("a1"), make_agent("a2")]
    return schedule, prioritized, agents


def sample_plan():
    return TestPlan(
        agent_id="a0",
        cycle=3,
        entries=(
            PlanEntry("t0", planned_duration=2.0, priority=0.9),
            PlanEntry("t1", planned_duration=1.0, priority=0.7),
        ),
    )


def test_emit_test_plans_mirrors_schedule():
    schedule, prioritized, agents = sample_schedule()
    plans = emit_test_plans(schedule, prioritized, agents, cycle=5)
    assert [p.agent_id for p in plans] == ["a0", "a1"]
    assert all(p.cycle == 5 for p in plans)
    a0 = plans[0]
    assert [e.test_id for e in a0.entries] == ["t0", "t2"]
    assert [e.planned_duration for e in a0.entries] == [2.0, 3.0]
    assert [e.priority for e in a0.entries] == [0.9, 0.4]
    flattened = {
        (entry.test_id, plan.agent_id) for plan in plans for entry in plan.entries
    }
    assert flattened == set(schedule.assigned_pairs())


def test_execute_plan_is_deterministic_and_isolated():
    model = OutcomeModel(defect_probabilities={"t0": 0.5}, seed=42)
    plan = sample_plan()
    first = execute_plan(plan, model)
    second = execute_plan(plan, model)
    assert first == second
    # Entry streams do not interact: reversing the plan changes nothing
    # about each test's own outcome and duration.
    reversed_plan = TestPlan(plan.agent_id, plan.cycle, tuple(reversed(plan.entries)))
    swapped = execute_plan(reversed_plan, model)
    by_id = {r.test_id: r for r in first.records}
    for record in swapped.records:
        assert record == by_id[record.test_id]


def tuple_seeded_records(plan, model):
    """Records drawn as NumPy seeds from the int tuple itself."""
    records = []
    for entry in plan.entries:
        ss = np.random.SeedSequence(
            (model.seed, _entry_seed(plan.agent_id), plan.cycle, _entry_seed(entry.test_id))
        )
        rng = np.random.Generator(np.random.PCG64(ss))
        failed = rng.random() < model.probability_for(entry.test_id)
        actual = entry.planned_duration * rng.uniform(*model.duration_jitter)
        outcome = Outcome.FAIL if failed else Outcome.PASS
        records.append(ExecutionRecord(entry.test_id, plan.agent_id, plan.cycle, outcome, actual))
    return tuple(records)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1])
@pytest.mark.parametrize("cycle", [0, 3, 2**32])
def test_execute_plan_draws_as_the_int_tuple_seeds(seed, cycle):
    # execute_plan hands SeedSequence the tuple's uint32 words; the word
    # boundaries of the seed and the cycle must give the same streams.
    plan = TestPlan(
        "agent-7",
        cycle,
        tuple(PlanEntry(f"t{k}", planned_duration=1.0 + k, priority=0.5) for k in range(12)),
    )
    model = OutcomeModel({}, default_probability=0.5, seed=seed)
    assert execute_plan(plan, model).records == tuple_seeded_records(plan, model)


def test_execute_plan_respects_probabilities_and_jitter():
    model = OutcomeModel(
        defect_probabilities={"sure": 1.0, "never": 0.0},
        duration_jitter=(0.9, 1.1),
        seed=7,
    )
    plan = TestPlan(
        agent_id="a0",
        cycle=0,
        entries=(
            PlanEntry("sure", planned_duration=2.0, priority=0.5),
            PlanEntry("never", planned_duration=2.0, priority=0.5),
        ),
    )
    result = execute_plan(plan, model)
    by_id = {r.test_id: r for r in result.records}
    assert by_id["sure"].outcome is Outcome.FAIL
    assert by_id["never"].outcome is Outcome.PASS
    for record in result.records:
        assert 0.9 * 2.0 <= record.actual_duration <= 1.1 * 2.0


def test_outcome_draw_does_not_shift_duration_draw():
    # The outcome consumes the first draw whatever the probability, so the
    # duration draw is identical for certain-fail and certain-pass models.
    plan = TestPlan("a0", 0, (PlanEntry("t0", planned_duration=4.0, priority=0.5),))
    fail = execute_plan(plan, OutcomeModel({"t0": 1.0}, seed=11))
    succeed = execute_plan(plan, OutcomeModel({"t0": 0.0}, seed=11))
    assert fail.records[0].outcome is Outcome.FAIL
    assert succeed.records[0].outcome is Outcome.PASS
    assert fail.records[0].actual_duration == succeed.records[0].actual_duration


def test_execute_plan_log_lines():
    plan = TestPlan("a0", 0, (PlanEntry("t0", planned_duration=2.0, priority=0.5),))
    result = execute_plan(plan, OutcomeModel({"t0": 0.0}, seed=1))
    actual = result.records[0].actual_duration
    assert result.log_lines == (f"t0: pass in {actual:.3f}s (planned 2.000s)",)


def test_outcome_model_validation():
    with pytest.raises(ValueError):
        OutcomeModel({"t0": 1.5})
    with pytest.raises(ValueError):
        OutcomeModel({}, default_probability=-0.1)
    with pytest.raises(ValueError):
        OutcomeModel({}, duration_jitter=(0.0, 1.0))
    with pytest.raises(ValueError):
        OutcomeModel({}, duration_jitter=(1.2, 1.1))
    for jitter in [(0.9, float("inf")), (float("inf"), float("inf"))]:
        with pytest.raises(ValueError, match="jitter interval"):
            OutcomeModel({}, duration_jitter=jitter)
    with pytest.raises(ValueError):
        OutcomeModel({}, seed=-1)
    model = OutcomeModel({"t0": 0.3}, default_probability=0.02)
    assert model.probability_for("t0") == 0.3
    assert model.probability_for("other") == 0.02


def test_collect_results_merges_in_agent_order():
    # Both agents ran t0: agent a's record comes first, b's is the repeat,
    # and the merge is rejected whole.
    history = HistoryStore()
    result_b = AgentResult(
        "b", 0, (ExecutionRecord("t0", "b", 0, Outcome.FAIL, 1.0),), ()
    )
    result_a = AgentResult(
        "a", 0, (ExecutionRecord("t0", "a", 0, Outcome.PASS, 1.0),), ()
    )
    with pytest.raises(DuplicateRecordError):
        collect_results([result_b, result_a], history)
    assert history.pair_last == {}
    assert history.current_cycle == 0


def test_collect_results_rejects_wrong_cycle_and_duplicates():
    history = HistoryStore()
    stale = AgentResult("a", 3, (), ())
    with pytest.raises(ValueError):
        collect_results([stale], history)
    both = [
        AgentResult("a", 0, (ExecutionRecord("t0", "a", 0, Outcome.PASS, 1.0),), ()),
        AgentResult("b", 0, (ExecutionRecord("t0", "b", 0, Outcome.PASS, 1.0),), ()),
    ]
    with pytest.raises(DuplicateRecordError):
        collect_results(both, history)


def test_rejected_merge_changes_nothing_and_a_corrected_retry_merges():
    history = HistoryStore()
    collect_results(
        [AgentResult("a", 0, (ExecutionRecord("t1", "a", 0, Outcome.FAIL, 1.0),), ())], history
    )
    before = history_readers(history, ["t0", "t1", "t2"])
    first = AgentResult(
        "a", 1,
        (ExecutionRecord("t0", "a", 1, Outcome.PASS, 1.0),
         ExecutionRecord("t1", "a", 1, Outcome.PASS, 1.0)),
        (),
    )
    repeat = AgentResult("b", 1, (ExecutionRecord("t0", "b", 1, Outcome.FAIL, 1.0),), ())
    with pytest.raises(DuplicateRecordError, match="duplicate record for test 't0' in cycle 1"):
        collect_results([repeat, first], history)
    assert history_readers(history, ["t0", "t1", "t2"]) == before
    # A record stamped with another cycle inside a current-cycle result.
    misstamped = AgentResult("b", 1, (ExecutionRecord("t2", "b", 7, Outcome.PASS, 1.0),), ())
    with pytest.raises(ValueError, match="^record for cycle 7 inside cycle 1 block$"):
        collect_results([first, misstamped], history)
    assert history_readers(history, ["t0", "t1", "t2"]) == before
    # The corrected results merge, and later cycles go on normally.
    fixed = AgentResult("b", 1, (ExecutionRecord("t2", "b", 1, Outcome.PASS, 1.0),), ())
    collect_results([fixed, first], history)
    assert history.current_cycle == 2
    assert history.pair_last == {"t1": {"a": 1}, "t0": {"a": 1}, "t2": {"b": 1}}
    assert history.fails["t1"] == "fp"
    later = AgentResult("a", 2, (ExecutionRecord("t2", "a", 2, Outcome.PASS, 1.0),), ())
    collect_results([later], history)
    assert history.last["t2"] == 2


def test_artifact_paths():
    assert str(plan_path("out", 3, "agent01")).endswith("out/cycle_3/plan_agent01.json")
    assert str(result_path("out", 0, "a")).endswith("out/cycle_0/result_a.json")


def test_plan_round_trip(tmp_path):
    plan = sample_plan()
    assert decode(TestPlan, encode(plan)) == plan
    path = tmp_path / "plan.json"
    save_plan(plan, path)
    assert load_plan(path) == plan
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data["format_version"] == FORMAT_VERSION


def test_result_round_trip(tmp_path):
    result = execute_plan(sample_plan(), OutcomeModel({}, seed=5))
    assert decode(AgentResult, encode(result)) == result
    path = tmp_path / "result.json"
    save_result(result, path)
    assert load_result(path) == result
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data["format_version"] == FORMAT_VERSION


def test_serialization_rejects_malformed_documents(tmp_path):
    plan_doc = encode(sample_plan())
    missing = dict(plan_doc)
    del missing["cycle"]
    with pytest.raises(ValueError):
        decode(TestPlan, missing)
    extra = dict(plan_doc)
    extra["note"] = "hi"
    with pytest.raises(ValueError):
        decode(TestPlan, extra)
    wrong_version = dict(plan_doc)
    wrong_version["format_version"] = 99
    with pytest.raises(ValueError):
        decode(TestPlan, wrong_version)
    # A string duration used to load and only failed later, in CSV export.
    bad_duration = json.loads(json.dumps(plan_doc))
    bad_duration["entries"][0]["planned_duration"] = "fast"
    with pytest.raises(ValueError, match="planned_duration"):
        decode(TestPlan, bad_duration)

    result_doc = encode(execute_plan(sample_plan(), OutcomeModel({})))
    bad_entry = json.loads(json.dumps(result_doc))
    bad_entry["records"][0]["surprise"] = 1
    with pytest.raises(ValueError):
        decode(AgentResult, bad_entry)

    # History cycle markers carry the format version like every artifact.
    path = tmp_path / "history.jsonl"
    append_history(path, [], 0)
    marker = json.loads(path.read_text(encoding="utf-8"))
    assert marker["format_version"] == FORMAT_VERSION
    unversioned = {k: v for k, v in marker.items() if k != "format_version"}
    for bad_marker in ({**marker, "format_version": 99}, unversioned):
        path.write_text(json.dumps(bad_marker) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="format_version"):
            load_history(path)
