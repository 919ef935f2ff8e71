"""Domain model: validation, eligibility filtering, history store and log."""

from __future__ import annotations

import json
import os
import re
import runpy
import stat
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import cisched.domain as domain
import cisched.simulator as simulator
from cisched import (
    DuplicateRecordError,
    ExecutionRecord,
    HistoryStore,
    Outcome,
    PriorityWeights,
    SchedulerKind,
    SimulationConfig,
    SimulationState,
    TestAgent,
    TestCase,
    ValidationResult,
    ViolationKind,
    WorkloadSpec,
    append_history,
    filter_eligible,
    generate_workload,
    load_history,
    load_repository,
    run_simulation,
    save_repository,
    validate_repository,
)
from cisched.cli import main as cli_main
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


def pair_order(store):
    """The store's (test id, agent id) pairs, in the order it holds them."""
    return [(t_id, a_id) for t_id, row in store.pair_last.items() for a_id in row]


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


@pytest.mark.parametrize(
    "tests, agents, violation",
    [
        (
            [make_test("t0", duration=float("inf"))],
            [make_agent("a0")],
            (
                ViolationKind.NON_POSITIVE_DURATION,
                "t0",
                "test 't0' has avg_duration inf, expected a finite value",
            ),
        ),
        (
            [make_test("t0")],
            [make_agent("a0", budget=float("inf"))],
            (
                ViolationKind.NON_POSITIVE_BUDGET,
                "a0",
                "agent 'a0' has budget inf, expected a finite value",
            ),
        ),
    ],
    ids=["avg_duration", "budget"],
)
def test_validate_flags_an_infinite_duration_or_budget(tests, agents, violation):
    result = validate_repository(tests, agents)
    assert [(v.kind, v.subject, v.message) for v in result.violations] == [violation]


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
    assert store.fails == {"t0": "pf", "t1": "f"}
    assert store.last == {"t0": 1, "t1": 0}
    assert store.pair_last == {"t0": {"a0": 0, "a1": 1}, "t1": {"a1": 0}}


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
    assert store.last["t0"] == 1
    assert store.fails["t0"] == "pf"


def test_history_store_state_ignores_record_order():
    records = [record("t0", "a0", 0), record("t1", "a1", 0, Outcome.FAIL), record("t2", "a0", 0)]
    forward, backward = HistoryStore(), HistoryStore()
    forward.add_cycle(records)
    backward.add_cycle(records[::-1])
    ids = ["t0", "t1", "t2"]
    assert history_readers(forward, ids) == history_readers(backward, ids)


def test_history_store_round_trips_through_the_codec():
    store = HistoryStore()
    store.add_cycle([record("t0", "a0", 0), record("t1", "a1", 0, Outcome.FAIL)])
    store.add_cycle([record("t1", "a0", 1), record("t0", "a1", 1, Outcome.FAIL)])
    copy = decode(HistoryStore, encode(store))
    ids = ["t0", "t1", "t2"]
    assert history_readers(copy, ids) == history_readers(store, ids)
    assert pair_order(copy) == pair_order(store)
    with pytest.raises(ValueError, match="letters other than f and p"):
        HistoryStore(fails={"t0": "pfx"})


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
    assert "t9" not in store.last
    assert "t9" not in store.fails
    assert store.pair_last == {"t0": {"a0": 0}}
    assert store.current_cycle == 1


TORN_LINE = '{"type": "rec'


def log_with_last_line(path, last_line):
    """Cycles 0 and 1, then cycle 2's first record and last_line; the blocks."""
    blocks = [[record("t0", "a0", c)] for c in range(2)]
    for c, block in enumerate(blocks):
        append_history(path, block, c)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record_line("t1", 2)) + "\n" + last_line)
    return blocks


def test_a_torn_last_line_is_discarded_with_its_cycle(tmp_path):
    # A crash mid-append cut cycle 2's second record short. The line lacks
    # its newline and does not parse: a full replay and a checkpointed tail
    # both discard it with the interrupted cycle, and the retry cuts it.
    path = tmp_path / "history.jsonl"
    blocks = log_with_last_line(path, TORN_LINE)
    assert cold_outcome(path)[0] == history_readers(built_store(*blocks), CHECKPOINT_IDS)
    assert checkpoint_of(path).exists()
    assert load_outcome(path) == cold_outcome(path)
    retry = [record("t1", "a1", 2, Outcome.FAIL)]
    append_history(path, retry, 2)
    assert_log_matches(path, blocks + [retry], CHECKPOINT_IDS)


def test_a_line_that_ends_in_a_newline_and_does_not_parse_fails(tmp_path):
    # The same text with its newline is no torn write: the load names its
    # line, and the append refuses and leaves the log as it was.
    path = tmp_path / "history.jsonl"
    log_with_last_line(path, TORN_LINE + "\n")
    before = path.read_bytes()
    error = "Unterminated string starting at: line 1 column 10 (char 9)"
    with pytest.raises(ValueError) as info:
        load_history(path)
    assert str(info.value) == f"{path}:6: {error}"
    with pytest.raises(ValueError) as info:
        append_history(path, [record("t1", "a1", 2)], 2)
    assert str(info.value) == f"{path}: {error}"
    assert path.read_bytes() == before


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
        (["{} {}"], ValueError, "{path}:1: Extra data: line 1 column 4 (char 3)"),
        (
            ["{"],
            ValueError,
            "{path}:1: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
        ),
        (
            ["\ufeff" + json.dumps(marker_line(0))],
            ValueError,
            "{path}:1: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)",
        ),
        (["[" * 100_000 + "]" * 100_000], ValueError, "{path}:1: JSON nested too deeply"),
    ],
    ids=[
        "marker_gap", "unknown_type", "wrong_cycle", "duplicate", "bad_version", "not_object",
        "extra_data", "bad_json", "bom", "deep_nesting",
    ],
)
def test_history_log_error_messages(tmp_path, lines, error, message):
    # A str is a line's raw text; any other value is written as JSON.
    path = tmp_path / "history.jsonl"
    text = "".join((line if isinstance(line, str) else json.dumps(line)) + "\n" for line in lines)
    path.write_text(text, encoding="utf-8")
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


def checkpoint_of(path):
    return path.with_name(path.name + ".checkpoint")


CHECKPOINT_IDS = ["t0", "t1", "t2", "t9"]


def three_cycle_log(path):
    blocks = [
        [record("t0", "a0", c), record("t1", "a1", c, Outcome.FAIL if c % 2 else Outcome.PASS)]
        for c in range(3)
    ]
    for c, block in enumerate(blocks):
        append_history(path, block, c)
    return blocks


def load_outcome(path):
    """Every reader of the loaded store and its pair order, or the error raised."""
    try:
        store = load_history(path)
    except (ValueError, DuplicateRecordError) as exc:
        return type(exc), str(exc)
    return history_readers(store, CHECKPOINT_IDS), pair_order(store)


def cold_outcome(path):
    checkpoint_of(path).unlink(missing_ok=True)
    return load_outcome(path)


@pytest.fixture
def parsed(monkeypatch):
    """The history lines parsed since the fixture started or was cleared."""
    calls = []
    parse = domain._parse_line
    monkeypatch.setattr(domain, "_parse_line", lambda line: calls.append(line) or parse(line))
    return calls


def edit_checkpoint(path, change):
    doc = json.loads(checkpoint_of(path).read_text(encoding="utf-8"))
    change(doc)
    checkpoint_of(path).write_text(json.dumps(doc), encoding="utf-8")


def truncate_log(path):
    data = path.read_bytes()
    path.write_bytes(data[: data.index(b"\n", len(data) // 2) + 1])


def edit_prefix_byte(path):
    # One byte inside the checkpointed prefix: the first t1 record becomes t2.
    data = path.read_bytes()
    at = data.index(b'"t1"') + 2
    path.write_bytes(data[:at] + b"2" + data[at + 1 :])


def cut_mid_line(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def flat_checkpoint(doc):
    # The layout before the checkpoint held the store itself: its fields at
    # the top level, and the pairs as a list of objects.
    store = doc.pop("store")
    pairs = store.pop("pair_last")
    doc.update(store)
    doc["pair_last"] = [
        {"test_id": t, "agent_id": a, "cycle": c}
        for t, agents in pairs.items()
        for a, c in agents.items()
    ]


@pytest.mark.parametrize(
    "damage",
    [
        truncate_log,
        cut_mid_line,
        edit_prefix_byte,
        lambda path: checkpoint_of(path).write_bytes(b"\x00\xff not a checkpoint"),
        lambda path: edit_checkpoint(path, lambda doc: doc.update(format_version=99)),
        lambda path: edit_checkpoint(path, lambda doc: doc.update(note=1)),
        lambda path: edit_checkpoint(path, lambda doc: doc["store"]["fails"].update(t0="ppx")),
        lambda path: edit_checkpoint(path, flat_checkpoint),
    ],
    ids=[
        "truncated", "cut_mid_line", "edited_byte", "garbage", "bad_version", "unknown_field",
        "bad_fail_flag", "flat_layout",
    ],
)
def test_load_history_falls_back_to_a_full_replay(tmp_path, parsed, damage):
    path = tmp_path / "history.jsonl"
    three_cycle_log(path)
    load_history(path)
    assert checkpoint_of(path).exists()
    damage(path)
    lines = path.read_bytes().count(b"\n") + (not path.read_bytes().endswith(b"\n"))
    parsed.clear()
    outcome = load_outcome(path)
    assert len(parsed) == lines
    # The replay rewrote the checkpoint in the current layout.
    assert domain._read_checkpoint(checkpoint_of(path)) is not None
    assert outcome == cold_outcome(path)


def test_load_history_replays_only_the_tail_past_the_checkpoint(tmp_path, parsed):
    path = tmp_path / "history.jsonl"
    blocks = three_cycle_log(path)
    load_history(path)
    before = checkpoint_of(path).read_bytes()
    # append_history never touches the checkpoint; the next load extends it.
    block = [record("t2", "a0", 3), record("t0", "a1", 3, Outcome.FAIL)]
    append_history(path, block, 3)
    assert checkpoint_of(path).read_bytes() == before
    parsed.clear()
    outcome = load_outcome(path)
    assert len(parsed) == len(block) + 1
    assert checkpoint_of(path).read_bytes() != before
    parsed.clear()
    assert load_outcome(path) == outcome
    assert parsed == []
    assert outcome == cold_outcome(path)
    assert outcome[0] == history_readers(built_store(*blocks, block), CHECKPOINT_IDS)


@pytest.mark.parametrize(
    "tail",
    [
        [{"type": "note"}],
        [record_line("t0", 3), record_line("t0", 3), marker_line(3)],
        [record_line("t0", 3), marker_line(4)],
    ],
    ids=["unknown_type", "duplicate", "marker_gap"],
)
def test_tail_errors_keep_their_line_numbers(tmp_path, tail):
    path = tmp_path / "history.jsonl"
    three_cycle_log(path)
    load_history(path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n" + "".join(json.dumps(line) + "\n" for line in tail))
    warm = load_outcome(path)
    assert checkpoint_of(path).exists()
    assert warm == cold_outcome(path)
    # Nine lines for three cycles, then the blank line.
    assert warm[1].startswith(f"{path}:{10 + len(tail)}: ")


def test_load_history_survives_a_failed_checkpoint_write(tmp_path, monkeypatch):
    path = tmp_path / "history.jsonl"
    three_cycle_log(path)

    def replace(src, dst):
        raise OSError("read-only file system")

    monkeypatch.setattr("os.replace", replace)
    outcome = load_outcome(path)
    monkeypatch.undo()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["history.jsonl"]
    assert outcome == cold_outcome(path)


@pytest.mark.parametrize("sidecar", ["none", "other_log"])
def test_load_history_reads_a_pipe_forward(tmp_path, sidecar):
    # A FIFO cannot be read again from its start: its load replays forward
    # once, as a file's does, and neither uses nor writes a checkpoint.
    path = tmp_path / "history.jsonl"
    three_cycle_log(path)
    data = path.read_bytes()
    expected = cold_outcome(path)
    fifo = tmp_path / "fifo.jsonl"
    os.mkfifo(fifo)
    if sidecar == "other_log":
        other = tmp_path / "other.jsonl"
        append_history(other, [record("t9", "a0", 0)], 0)
        load_history(other)
        checkpoint_of(other).rename(checkpoint_of(fifo))
    before = checkpoint_of(fifo).read_bytes() if sidecar == "other_log" else None
    writer = threading.Thread(target=fifo.write_bytes, args=(data,))
    writer.start()
    try:
        outcome = load_outcome(fifo)
    finally:
        writer.join()
    assert outcome == expected
    if before is None:
        assert not checkpoint_of(fifo).exists()
    else:
        assert checkpoint_of(fifo).read_bytes() == before


def test_checkpoint_takes_the_logs_permissions(tmp_path):
    path = tmp_path / "history.jsonl"
    three_cycle_log(path)
    path.chmod(0o640)
    load_history(path)
    assert stat.S_IMODE(checkpoint_of(path).stat().st_mode) == 0o640


def test_checkpoint_stops_at_the_last_marker(tmp_path, parsed):
    # An interrupted cycle's records are never part of a checkpoint, so its
    # retry, which cuts them, keeps the checkpointed prefix intact.
    path = tmp_path / "history.jsonl"
    blocks = three_cycle_log(path)
    completed = path.read_bytes()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record_line("t9", 3)) + "\n")
    load_history(path)
    doc = json.loads(checkpoint_of(path).read_text(encoding="utf-8"))
    assert (doc["log_bytes"], doc["log_lines"], doc["store"]["current_cycle"]) == (
        len(completed), 9, 3
    )
    assert "t9" not in doc["store"]["fails"] and "t9" not in doc["store"]["last"]
    retry = [record("t2", "a0", 3)]
    append_history(path, retry, 3)
    parsed.clear()
    outcome = load_outcome(path)
    assert len(parsed) == 2
    assert outcome[0] == history_readers(built_store(*blocks, retry), CHECKPOINT_IDS)
    assert outcome == cold_outcome(path)


def test_a_marker_without_its_newline_is_not_checkpointed(tmp_path):
    # append_history rewrites that newline, so the checkpoint would never
    # match; the append makes the marker checkpointable.
    path = tmp_path / "history.jsonl"
    blocks = three_cycle_log(path)
    path.write_bytes(path.read_bytes().rstrip(b"\n"))
    assert load_outcome(path) == cold_outcome(path)
    assert not checkpoint_of(path).exists()
    block = [record("t2", "a0", 3)]
    append_history(path, block, 3)
    assert load_outcome(path)[0] == history_readers(built_store(*blocks, block), CHECKPOINT_IDS)
    assert checkpoint_of(path).exists()


def test_checkpoint_matches_the_simulators_store_at_scale(tmp_path, monkeypatch, capsys):
    # A 100-cycle greedy campaign at 200x4: the cold, warm and warm-plus-one
    # loads agree with the store the simulator kept in memory, and schedule
    # writes the same plans and output from each.
    tests, agents, model = generate_workload(
        WorkloadSpec(200, 4, 1.0, 10.0, 0.8, 0.1, 0.01, 0.2, 300.0, 3)
    )
    states = []

    def keep_state(**fields):
        states.append(SimulationState(**fields))
        return states[-1]

    monkeypatch.setattr(simulator, "SimulationState", keep_state)
    # Only the log is under test; skipping the cycle files halves the run.
    monkeypatch.setattr(simulator, "_cycle_files", lambda *args: [])
    out = tmp_path / "run"
    run_simulation(
        SimulationConfig(100, SchedulerKind.GREEDY, PriorityWeights(), model, out_dir=str(out)),
        tests,
        agents,
    )
    memory = states[0].history
    path = out / "history.jsonl"
    repo, config = tmp_path / "repository.json", tmp_path / "config.yaml"
    save_repository(tests, agents, repo)
    config.write_text("solver:\n  time_budget_ms: 20\n", encoding="utf-8")
    test_ids = [t.id for t in tests]

    def readers(store):
        return history_readers(store, test_ids), pair_order(store)

    def schedule(name, warm):
        if not warm:
            checkpoint_of(path).unlink()
        plans = tmp_path / name
        argv = ["schedule", "--repo", str(repo), "--history", str(path), "--config", str(config)]
        assert cli_main([*argv, "--out", str(plans)]) == 0
        return capsys.readouterr().out, {p.name: p.read_bytes() for p in plans.rglob("*.json")}

    assert not checkpoint_of(path).exists()
    assert readers(load_history(path)) == readers(memory)
    assert checkpoint_of(path).exists()
    assert readers(load_history(path)) == readers(memory)
    assert schedule("warm", True) == schedule("cold", False)

    # One more cycle, appended as an external executor would.
    stale = checkpoint_of(path).read_bytes()
    cycle = memory.current_cycle
    block = [
        record(t.id, min(t.compatible_agents), cycle, Outcome.FAIL if i % 3 else Outcome.PASS)
        for i, t in enumerate(tests[::2])
    ]
    memory.add_cycle(block)
    append_history(path, block, cycle)
    assert readers(load_history(path)) == readers(memory)
    checkpoint_of(path).write_bytes(stale)
    assert schedule("plus_one", True) == schedule("plus_one_cold", False)


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


def test_deeply_nested_repository_is_invalid_input(tmp_path):
    # The JSON parser's RecursionError becomes a ValueError naming the file.
    path = tmp_path / "repo.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_repository(path)
    assert type(info.value) is ValueError
    assert str(info.value).startswith(f"{path}: ")


def test_non_utf8_repository_is_invalid_input(tmp_path):
    # The decode error becomes a ValueError naming the file.
    path = tmp_path / "repo.json"
    path.write_bytes(b"\xff{}")
    with pytest.raises(ValueError) as info:
        load_repository(path)
    assert type(info.value) is ValueError
    assert str(info.value).startswith(f"{path}: ")


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


def test_history_load_script_runs(capsys):
    # The measurement ROADMAP item 7 cites must keep running.
    script = Path(__file__).resolve().parents[1] / "benchmarks" / "history_load.py"
    main = runpy.run_path(str(script))["main"]
    assert main(["--cycles", "3", "6", "--tests", "12", "--agents", "2", "--repeats", "1"]) == 0
    out = capsys.readouterr().out
    assert len(re.findall(r"^    checkpoint \d+ bytes$", out, re.MULTILINE)) == 2
    assert "warm+1 / warm: 3: " in out
    # The split of the report's plan work that ROADMAP item 7's shares cite.
    assert re.search(r"^report plan work at 6 cycles in one process, \d+ plans, \d+ entries:$", out, re.M)
    for stage in ("read and parse", "decode", "render"):
        assert re.search(rf"^    {stage} +[\d.]+ ms +[\d.]+ us/entry$", out, re.M), stage
    assert "schedule / schedule at 3 cycles: 6: " in out
    assert "report / report at 3 cycles: 6: " in out
