"""Domain model: validation, eligibility filtering, history store and log."""

from __future__ import annotations

import json

import pytest

from cisched import (
    DuplicateRecordError,
    ExecutionRecord,
    HistoryStore,
    Outcome,
    TestAgent,
    TestCase,
    ValidationResult,
    ViolationKind,
    append_history,
    filter_eligible,
    load_history,
    load_repository,
    save_repository,
    validate_repository,
)
from cisched.codec import FORMAT_VERSION, decode, encode, encode_fields
from cisched.domain import Repository

from helpers import history_readers, make_agent, make_test


def record(test_id="t0", agent_id="a0", cycle=0, outcome=Outcome.PASS, duration=1.0):
    return ExecutionRecord(
        test_id=test_id,
        agent_id=agent_id,
        cycle=cycle,
        outcome=outcome,
        actual_duration=duration,
    )


def test_validate_accepts_well_formed_repository():
    tests = [make_test("t0"), make_test("t1", agents=("a0", "a1"))]
    agents = [make_agent("a0"), make_agent("a1")]
    result = validate_repository(tests, agents)
    assert result.ok
    assert result.violations == ()


def test_validate_reports_every_violation():
    tests = [
        make_test("t0", duration=0.0),
        make_test("t0", static=1.5),
        TestCase(
            id="t1",
            avg_duration=1.0,
            static_priority=0.5,
            compatible_agents=frozenset(),
        ),
    ]
    agents = [make_agent("a0", budget=-1.0), make_agent("a0")]
    result = validate_repository(tests, agents)
    assert not result.ok
    assert ViolationKind.NON_POSITIVE_DURATION in result.kinds_for("t0")
    assert ViolationKind.DUPLICATE_ID in result.kinds_for("t0")
    assert ViolationKind.PRIORITY_OUT_OF_RANGE in result.kinds_for("t0")
    assert ViolationKind.EMPTY_COMPATIBILITY in result.kinds_for("t1")
    assert ViolationKind.NON_POSITIVE_BUDGET in result.kinds_for("a0")
    assert ViolationKind.DUPLICATE_ID in result.kinds_for("a0")


def test_validation_result_ok_is_empty():
    assert ValidationResult(()).ok


def test_filter_eligible_drops_inactive_and_unreachable():
    tests = [
        make_test("t0", agents=("a0",)),
        make_test("t1", agents=("a1",)),
        make_test("t2", agents=("a0",), active=False),
        make_test("t3", agents=("a0", "a1")),
    ]
    agents = [make_agent("a0"), make_agent("a1", active=False)]
    eligible, active = filter_eligible(tests, agents)
    assert [t.id for t in eligible] == ["t0", "t3"]
    assert [a.id for a in active] == ["a0"]


def test_filter_eligible_is_idempotent_and_order_preserving():
    tests = [make_test(f"t{i}", agents=("a0",)) for i in range(5)]
    agents = [make_agent("a0")]
    once = filter_eligible(tests, agents)
    twice = filter_eligible(*once)
    assert once == twice
    assert [t.id for t in once[0]] == [t.id for t in tests]


def test_history_store_indexes_records():
    store = HistoryStore()
    store.add_cycle([record("t0", "a0", 0), record("t1", "a1", 0, Outcome.FAIL)])
    store.add_cycle([record("t0", "a1", 1, Outcome.FAIL)])
    assert store.current_cycle == 2
    assert store.recent_fails("t0", 5) == [True, False]
    assert store.recent_fails("t0", 1) == [True]
    assert store.recent_fails("t1", 5) == [True]
    assert store.recent_fails("missing", 5) == []
    assert store.last_execution("t0") == 1
    assert store.last_execution("t1") == 0
    assert store.last_execution("missing") is None
    assert store.pair_last_cycle() == {
        ("t0", "a0"): 0,
        ("t1", "a1"): 0,
        ("t0", "a1"): 1,
    }


def test_history_store_rejects_duplicates_and_regressions():
    store = HistoryStore()
    store.add_cycle([record("t0", "a0", 0), record("t1", "a1", 0)])
    before = history_readers(store, ["t0", "t1", "t2"])
    # A repeated test, a record of an earlier, later or negative cycle:
    # each block is rejected whole, and no reader changes.
    bad_blocks = [
        [record("t2", "a0", 1), record("t0", "a0", 1), record("t0", "a1", 1, Outcome.FAIL)],
        [record("t2", "a0", 1), record("t1", "a0", 0)],
        [record("t2", "a0", 1), record("t1", "a0", 7)],
        [record("t2", "a0", -1)],
    ]
    for block, error in zip(bad_blocks, [DuplicateRecordError, ValueError, ValueError, ValueError]):
        with pytest.raises(error):
            store.add_cycle(block)
        assert history_readers(store, ["t0", "t1", "t2"]) == before
    assert store.current_cycle == 1
    with pytest.raises(DuplicateRecordError, match="duplicate record for test 't0' in cycle 1"):
        store.add_cycle(bad_blocks[0])
    with pytest.raises(ValueError, match="^record for cycle 7 inside cycle 1 block$"):
        store.add_cycle(bad_blocks[2])
    # The corrected block then merges.
    store.add_cycle([record("t2", "a0", 1), record("t0", "a1", 1, Outcome.FAIL)])
    assert store.current_cycle == 2
    assert store.last_execution("t0") == 1
    assert store.recent_fails("t0", 5) == [True, False]


def test_history_store_state_ignores_record_order():
    records = [record("t0", "a0", 0), record("t1", "a1", 0, Outcome.FAIL), record("t2", "a0", 0)]
    forward, backward = HistoryStore(), HistoryStore()
    forward.add_cycle(records)
    backward.add_cycle(records[::-1])
    ids = ["t0", "t1", "t2"]
    assert history_readers(forward, ids) == history_readers(backward, ids)


def test_history_log_round_trip(tmp_path):
    path = tmp_path / "history.jsonl"
    first = [record("t0", "a0", 0), record("t1", "a0", 0, Outcome.FAIL, 2.5)]
    second = [record("t0", "a1", 1)]
    append_history(path, first, 0)
    append_history(path, second, 1)
    store = load_history(path)
    built = HistoryStore()
    built.add_cycle(first)
    built.add_cycle(second)
    assert history_readers(store, ["t0", "t1"]) == history_readers(built, ["t0", "t1"])
    assert store.current_cycle == 2


def test_append_history_refuses_a_malformed_block(tmp_path):
    path = tmp_path / "history.jsonl"
    append_history(path, [record("t0", "a0", 0)], 0)
    before = path.read_bytes()
    with pytest.raises(DuplicateRecordError):
        append_history(path, [record("t0", "a0", 1), record("t0", "a1", 1)], 1)
    assert path.read_bytes() == before
    with pytest.raises(ValueError, match="^record for cycle 7 inside cycle 1 block$"):
        append_history(path, [record("t1", "a0", 1), record("t0", "a0", 7)], 1)
    assert path.read_bytes() == before
    # The log still loads, and the corrected block extends it.
    assert load_history(path).current_cycle == 1
    append_history(path, [record("t0", "a0", 1)], 1)
    assert load_history(path).current_cycle == 2
    # A refused block never creates the file either.
    fresh = tmp_path / "fresh.jsonl"
    with pytest.raises(ValueError):
        append_history(fresh, [record("t0", "a0", 3)], 0)
    assert not fresh.exists()


def test_history_log_discards_interrupted_cycle(tmp_path):
    path = tmp_path / "history.jsonl"
    append_history(path, [record("t0", "a0", 0)], 0)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(
            json.dumps(
                {
                    "type": "record",
                    "test_id": "t9",
                    "agent_id": "a0",
                    "cycle": 1,
                    "outcome": "pass",
                    "actual_duration": 1.0,
                }
            )
            + "\n"
        )
    store = load_history(path)
    assert store.last_execution("t9") is None
    assert store.recent_fails("t9", 5) == []
    assert store.pair_last_cycle() == {("t0", "a0"): 0}
    assert store.current_cycle == 1


def test_history_log_rejects_marker_gaps(tmp_path):
    path = tmp_path / "history.jsonl"
    append_history(path, [record("t0", "a0", 0)], 0)
    append_history(path, [record("t0", "a0", 2)], 2)
    with pytest.raises(ValueError):
        load_history(path)


def test_history_log_rejects_unknown_line_type(tmp_path):
    path = tmp_path / "history.jsonl"
    path.write_text(json.dumps({"type": "note"}) + "\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_history(path)


def record_line(test_id, cycle):
    return {"type": "record", **encode_fields(record(test_id, "a0", cycle))}


def marker_line(cycle, version=FORMAT_VERSION):
    return {"type": "cycle", "cycle": cycle, "format_version": version}


@pytest.mark.parametrize(
    "lines, error, message",
    [
        (
            [record_line("t0", 0), marker_line(0), record_line("t0", 2), marker_line(2)],
            ValueError,
            "{path}:4: history cycle marker 2 does not match expected 1",
        ),
        ([{"type": "note"}], ValueError, "{path}:1: unknown history line type: 'note'"),
        (
            [record_line("t0", 0), record_line("t1", 1), marker_line(0)],
            ValueError,
            "{path}:3: record for cycle 1 inside cycle 0 block",
        ),
        (
            [record_line("t0", 0), record_line("t0", 0), marker_line(0)],
            DuplicateRecordError,
            "{path}:3: duplicate record for test 't0' in cycle 0",
        ),
        ([marker_line(0, 99)], ValueError, "{path}:1: unsupported format_version: 99"),
        ([["not", "an", "object"]], ValueError, "{path}:1: expected an object"),
    ],
    ids=["marker_gap", "unknown_type", "wrong_cycle", "duplicate", "bad_version", "not_object"],
)
def test_history_log_error_messages(tmp_path, lines, error, message):
    path = tmp_path / "history.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    with pytest.raises((ValueError, DuplicateRecordError)) as info:
        load_history(path)
    assert type(info.value) is error
    assert str(info.value) == message.format(path=path)


def test_repository_round_trip(tmp_path):
    tests = [
        make_test("t0", duration=2.5, static=0.75, agents=("a0", "a1"), obligatory=True),
        make_test("t1", active=False),
    ]
    agents = [make_agent("a0", budget=30.0), make_agent("a1", active=False)]
    path = tmp_path / "repo.json"
    save_repository(tests, agents, path)
    loaded_tests, loaded_agents = load_repository(path)
    assert loaded_tests == tests
    assert loaded_agents == agents


def test_repository_rejects_unknown_fields():
    doc = encode(Repository((make_test("t0"),), (make_agent("a0"),)))
    doc["tests"][0]["color"] = "red"
    with pytest.raises(ValueError):
        decode(Repository, doc, version_optional=True)
    with pytest.raises(ValueError):
        decode(Repository, {"tests": [], "agents": [], "extra": 1}, version_optional=True)

    # Wrongly typed and missing fields are rejected, never coerced.
    good = encode(Repository((make_test("t0"),), (make_agent("a0"),)))
    for field, value in (("obligatory", "false"), ("compatible_agents", "ab")):
        bad = json.loads(json.dumps(good))
        bad["tests"][0][field] = value
        with pytest.raises(ValueError, match=field):
            decode(Repository, bad, version_optional=True)
    bad = json.loads(json.dumps(good))
    del bad["tests"][0]["avg_duration"]
    with pytest.raises(ValueError, match="avg_duration"):
        decode(Repository, bad, version_optional=True)
