"""Domain model: validation, eligibility filtering, history store and log."""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
from cisched.domain import Repository, _completed_end

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
    lines = [record_line("t0", 0), marker_line(0), record_line("t0", 2), marker_line(2)]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(ValueError):
        load_history(path)


def test_history_log_rejects_unknown_line_type(tmp_path):
    path = tmp_path / "history.jsonl"
    path.write_text(json.dumps({"type": "note"}) + "\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_history(path)


def record_dict(r):
    return {"type": "record", **encode_fields(r)}


def record_line(test_id, cycle, outcome=Outcome.PASS):
    return record_dict(record(test_id, "a0", cycle, outcome))


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


def built_store(*blocks):
    store = HistoryStore()
    for block in blocks:
        store.add_cycle(block)
    return store


def assert_log_matches(path, blocks, test_ids):
    assert history_readers(load_history(path), test_ids) == history_readers(
        built_store(*blocks), test_ids
    )


@pytest.mark.parametrize("stale_test", ["t0", "t9"], ids=["same_test", "other_test"])
def test_append_history_retries_an_interrupted_cycle(tmp_path, stale_test):
    # Cycle 1's first attempt wrote one record and died before its marker.
    # The retry replaces that attempt: merged with it, a repeated test would
    # make the log unloadable, and another test would keep a record of a run
    # that never finished.
    path = tmp_path / "history.jsonl"
    first = [record("t0", "a0", 0)]
    append_history(path, first, 0)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record_line(stale_test, 1)) + "\n")
    retry = [record("t0", "a1", 1, Outcome.FAIL)]
    append_history(path, retry, 1)
    assert_log_matches(path, [first, retry], ["t0", "t9"])


def test_append_history_refuses_a_cycle_gap(tmp_path):
    path = tmp_path / "history.jsonl"
    first = [record("t0", "a0", 0)]
    append_history(path, first, 0)
    before = path.read_bytes()
    with pytest.raises(ValueError, match="cannot append cycle 2, the log's next cycle is 1$"):
        append_history(path, [record("t0", "a0", 2)], 2)
    assert path.read_bytes() == before
    assert_log_matches(path, [first], ["t0"])
    # A missing log takes cycle 0 only, and a refusal does not create it.
    fresh = tmp_path / "fresh.jsonl"
    with pytest.raises(ValueError, match="next cycle is 0$"):
        append_history(fresh, [], 1)
    assert not fresh.exists()


def test_append_history_after_a_marker_without_newline(tmp_path):
    path = tmp_path / "history.jsonl"
    first = [record("t0", "a0", 0), record("t1", "a0", 0, Outcome.FAIL)]
    lines = [record_line("t0", 0), record_line("t1", 0, Outcome.FAIL), marker_line(0)]
    path.write_text("\n".join(json.dumps(line) for line in lines), encoding="utf-8")
    second = [record("t1", "a0", 1)]
    append_history(path, second, 1)
    assert_log_matches(path, [first, second], ["t0", "t1"])
    assert path.read_text(encoding="utf-8").count("\n") == 5


def test_append_history_cuts_a_long_interrupted_cycle(tmp_path):
    # The interrupted tail spans several of the backward scan's reads, and a
    # read boundary falls inside a line.
    path = tmp_path / "history.jsonl"
    blocks = [[record(f"t{i}", "a0", c) for i in range(40)] for c in range(3)]
    for c, block in enumerate(blocks):
        append_history(path, block, c)
    completed = path.read_bytes()
    with open(path, "a", encoding="utf-8") as fh:
        for i in range(200):
            fh.write(json.dumps(record_line(f"t{i % 7}", 3)) + "\n\n")
    last = [record("t5", "a0", 3)]
    append_history(path, last, 3)
    assert path.read_bytes().startswith(completed)
    assert_log_matches(path, blocks + [last], [f"t{i}" for i in range(40)])


def test_append_history_refuses_an_unreadable_tail(tmp_path):
    path = tmp_path / "history.jsonl"
    append_history(path, [record("t0", "a0", 0)], 0)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"type": "note"}) + "\n")
    before = path.read_bytes()
    with pytest.raises(ValueError, match="unknown history line type: 'note'$"):
        append_history(path, [record("t0", "a0", 1)], 1)
    assert path.read_bytes() == before


def test_history_lines_end_only_at_newline(tmp_path):
    # A lone carriage return does not end a line for either reader, so the
    # loader and the appender agree on where the last marker is.
    path = tmp_path / "history.jsonl"
    text = json.dumps(marker_line(0)) + "\r" + json.dumps(marker_line(1)) + "\n"
    path.write_text(text, encoding="utf-8")
    before = path.read_bytes()
    with pytest.raises(ValueError, match=":1: Extra data"):
        load_history(path)
    with pytest.raises(ValueError, match="Extra data"):
        append_history(path, [], 2)
    assert path.read_bytes() == before


TEST_IDS = ["t0", "t1", "t2", "t3"]


def cycle_rows(unique):
    row = st.tuples(st.sampled_from(TEST_IDS), st.sampled_from(["a0", "a1"]), st.booleans())
    if unique:
        return st.lists(row, max_size=4, unique_by=lambda r: r[0])
    return st.lists(row, max_size=3)


def to_records(rows, cycle):
    return [record(t, a, cycle, Outcome.FAIL if fail else Outcome.PASS, 1.5) for t, a, fail in rows]


@st.composite
def history_logs(draw):
    """A log's text and its completed blocks.

    Blank lines may precede any line, 0-3 records of an interrupted cycle
    follow the last marker, and the final newline may be missing.
    """
    block_rows = draw(st.lists(cycle_rows(True), max_size=5))
    blocks = [to_records(rows, c) for c, rows in enumerate(block_rows)]
    # The interrupted cycle need not be a valid block: it never got its marker.
    interrupted = to_records(draw(cycle_rows(False)), len(blocks))
    lines = []
    for c, block in enumerate(blocks):
        lines += [record_dict(r) for r in block] + [marker_line(c)]
    lines += [record_dict(r) for r in interrupted]
    text = ""
    for line in lines:
        text += draw(st.sampled_from(["", "\n", "  \n"])) + json.dumps(line, sort_keys=True) + "\n"
    if text and draw(st.booleans()):
        text = text[:-1]
    return text, blocks


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(log=history_logs(), rows=cycle_rows(True))
def test_append_history_agrees_with_load_history(tmp_path, log, rows):
    text, blocks = log
    path = tmp_path / "history.jsonl"
    path.write_text(text, encoding="utf-8")
    with open(path, "rb") as fh:
        next_cycle, _ = _completed_end(fh)
    assert next_cycle == load_history(path).current_cycle == len(blocks)
    block = to_records(rows, next_cycle)
    append_history(path, block, next_cycle)
    assert_log_matches(path, blocks + [block], TEST_IDS)


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
