"""Core domain model: test cases, agents, execution history, eligibility filtering."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import BinaryIO, Sequence

from cisched import codec


class Outcome(str, Enum):
    """Result of one test execution."""

    PASS = "pass"
    FAIL = "fail"


@dataclass(frozen=True)
class TestCase:
    """A schedulable unit of test work.

    ``compatible_agents`` names the agents this test may run on; ``active``
    is false while the script is under maintenance. Invariants (positive
    duration, non-empty compatibility, priority in [0, 1]) are checked by
    :func:`validate_repository`, not at construction, so that invalid input
    files can be loaded and reported on.
    """

    id: str
    avg_duration: float
    static_priority: float
    compatible_agents: frozenset[str]
    obligatory: bool = False
    active: bool = True


@dataclass(frozen=True)
class TestAgent:
    """An execution resource with a per-cycle time budget in seconds."""

    id: str
    budget: float
    capabilities: frozenset[str] = frozenset()
    active: bool = True


@dataclass(frozen=True)
class ExecutionRecord:
    """Outcome of one test execution on one agent in one cycle."""

    test_id: str
    agent_id: str
    cycle: int
    outcome: Outcome
    actual_duration: float


class ViolationKind(str, Enum):
    DUPLICATE_ID = "duplicate_id"
    EMPTY_COMPATIBILITY = "empty_compatibility"
    NON_POSITIVE_DURATION = "non_positive_duration"
    NON_POSITIVE_BUDGET = "non_positive_budget"
    PRIORITY_OUT_OF_RANGE = "priority_out_of_range"


@dataclass(frozen=True)
class Violation:
    """One invariant violation found while validating a repository."""

    kind: ViolationKind
    subject: str
    message: str


@dataclass(frozen=True)
class ValidationResult:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def kinds_for(self, subject: str) -> set[ViolationKind]:
        return {v.kind for v in self.violations if v.subject == subject}


def validate_repository(
    tests: Sequence[TestCase], agents: Sequence[TestAgent]
) -> ValidationResult:
    """Check all type invariants and id uniqueness, returning every violation found."""
    violations: list[Violation] = []

    seen_tests: set[str] = set()
    for t in tests:
        if t.id in seen_tests:
            violations.append(
                Violation(ViolationKind.DUPLICATE_ID, t.id, f"duplicate test id {t.id!r}")
            )
        seen_tests.add(t.id)
        if not t.avg_duration > 0:
            violations.append(
                Violation(
                    ViolationKind.NON_POSITIVE_DURATION,
                    t.id,
                    f"test {t.id!r} has avg_duration {t.avg_duration}, expected > 0",
                )
            )
        if not t.compatible_agents:
            violations.append(
                Violation(
                    ViolationKind.EMPTY_COMPATIBILITY,
                    t.id,
                    f"test {t.id!r} has no compatible agents",
                )
            )
        if not 0.0 <= t.static_priority <= 1.0:
            violations.append(
                Violation(
                    ViolationKind.PRIORITY_OUT_OF_RANGE,
                    t.id,
                    f"test {t.id!r} has static_priority {t.static_priority}, expected in [0, 1]",
                )
            )

    seen_agents: set[str] = set()
    for a in agents:
        if a.id in seen_agents:
            violations.append(
                Violation(ViolationKind.DUPLICATE_ID, a.id, f"duplicate agent id {a.id!r}")
            )
        seen_agents.add(a.id)
        if not a.budget > 0:
            violations.append(
                Violation(
                    ViolationKind.NON_POSITIVE_BUDGET,
                    a.id,
                    f"agent {a.id!r} has budget {a.budget}, expected > 0",
                )
            )

    return ValidationResult(tuple(violations))


def filter_eligible(
    tests: Sequence[TestCase], agents: Sequence[TestAgent]
) -> tuple[list[TestCase], list[TestAgent]]:
    """Drop inactive entries and tests with no active compatible agent.

    Input order is preserved on both sides; the operation is idempotent.
    """
    active_agents = [a for a in agents if a.active]
    active_ids = {a.id for a in active_agents}
    eligible_tests = [
        t for t in tests if t.active and t.compatible_agents & active_ids
    ]
    return eligible_tests, active_agents


class DuplicateRecordError(Exception):
    """A (test_id, cycle) pair was recorded twice."""

    def __init__(self, test_id: str, cycle: int) -> None:
        super().__init__(f"duplicate record for test {test_id!r} in cycle {cycle}")
        self.test_id = test_id
        self.cycle = cycle


def _check_cycle_block(records: Sequence[ExecutionRecord], cycle: int) -> None:
    """The rule for one cycle's records: all belong to the cycle, no test twice."""
    seen: set[str] = set()
    for r in records:
        if r.cycle != cycle:
            raise ValueError(f"record for cycle {r.cycle} inside cycle {cycle} block")
        if r.test_id in seen:
            raise DuplicateRecordError(r.test_id, cycle)
        seen.add(r.test_id)


class HistoryStore:
    """Execution history reduced to what prioritization reads.

    Per test: the last cycle it ran and its fail flags, oldest first; per
    (test, agent) pair: the last cycle it ran. Only :meth:`add_cycle`, from
    a single writer, changes it; readers may share it between calls.
    """

    def __init__(self) -> None:
        self._last: dict[str, int] = {}
        self._fails: dict[str, list[bool]] = {}
        self._pair_last: dict[tuple[str, str], int] = {}
        self.current_cycle = 0

    def add_cycle(self, records: Sequence[ExecutionRecord]) -> None:
        """Record the current cycle and advance; a rejected block changes nothing."""
        _check_cycle_block(records, self.current_cycle)
        for r in records:
            self._last[r.test_id] = r.cycle
            self._fails.setdefault(r.test_id, []).append(r.outcome is Outcome.FAIL)
            self._pair_last[(r.test_id, r.agent_id)] = r.cycle
        self.current_cycle += 1

    def recent_fails(self, test_id: str, k: int) -> list[bool]:
        """Fail flags of the test's newest k results, newest first."""
        return self._fails.get(test_id, [])[:-k - 1:-1]

    def last_execution(self, test_id: str) -> int | None:
        """Cycle of the most recent execution, or None if never executed."""
        return self._last.get(test_id)

    def pair_last_cycle(self) -> dict[tuple[str, str], int]:
        """Last cycle each (test, agent) pair ran, for rotation scoring."""
        return dict(self._pair_last)


@dataclass(frozen=True)
class Repository:
    """The persisted form of a repository file."""

    tests: tuple[TestCase, ...] = ()
    agents: tuple[TestAgent, ...] = ()


@dataclass(frozen=True)
class _CycleMarker:
    """History line closing a completed cycle."""

    cycle: int


def load_repository(path: str | Path) -> tuple[list[TestCase], list[TestAgent]]:
    """Load a repository file; people write these by hand, so the version may be omitted."""
    repo = codec.load(Repository, path, version_optional=True)
    return list(repo.tests), list(repo.agents)


def save_repository(tests: Sequence[TestCase], agents: Sequence[TestAgent], path: str | Path) -> None:
    codec.save(Repository(tuple(tests), tuple(agents)), path)


def _parse_line(line: str) -> ExecutionRecord | _CycleMarker | None:
    """One history log line: a record, a cycle marker, or None for a blank line."""
    line = line.strip()
    if not line:
        return None
    obj = json.loads(line)
    if type(obj) is not dict:
        raise ValueError("expected an object")
    kind = obj.pop("type", None)
    if kind == "record":
        return codec.decode_fields(ExecutionRecord, obj)
    if kind != "cycle":
        raise ValueError(f"unknown history line type: {kind!r}")
    return codec.decode(_CycleMarker, obj)


def _completed_end(fh: BinaryIO) -> tuple[int, int]:
    """The cycle after a log's last marker, and the offset where its text ends.

    Reads backward from the end in doubling blocks and stops at the last
    marker, so the cost does not grow with the log; only the lines after
    that marker are parsed. A log without a marker gives (0, 0).
    """
    end = fh.seek(0, os.SEEK_END)  # no marker from here on
    block = 4096
    while end > 0:
        start = max(0, end - block)
        fh.seek(start)
        lines = fh.read(end - start).split(b"\n")
        # Unless the read began at the start of the file, its first piece may
        # be the tail of a line; the next, larger read parses it whole.
        line_end = end
        for line in reversed(lines[1:] if start else lines):
            item = _parse_line(line.decode("utf-8"))
            if isinstance(item, _CycleMarker):
                return item.cycle + 1, line_end
            line_end -= len(line) + 1
        end = start + len(lines[0]) if start else 0
        block *= 2
    return 0, 0


def append_history(path: str | Path, records: Sequence[ExecutionRecord], completed_cycle: int) -> None:
    """Append one completed cycle (its records plus a completion marker) to a history log.

    The block replaces whatever follows the log's last cycle marker: the
    records of an interrupted cycle are cut, as load_history discards them,
    and a marker that lacks its final newline gets one. A block
    load_history would reject, or one whose cycle is not the one after the
    log's last marker (0 for a missing or marker-less log), raises and
    leaves the log as it was.
    """
    _check_cycle_block(records, completed_cycle)
    try:
        with open(path, "rb") as fh:
            next_cycle, end = _completed_end(fh)
    except FileNotFoundError:
        next_cycle, end = 0, 0
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if completed_cycle != next_cycle:
        raise ValueError(
            f"{path}: cannot append cycle {completed_cycle}, the log's next cycle is {next_cycle}"
        )
    lines = [
        json.dumps({"type": "record", **codec.encode_fields(r)}, sort_keys=True) for r in records
    ]
    marker = {"type": "cycle", **codec.encode(_CycleMarker(completed_cycle))}
    lines.append(json.dumps(marker, sort_keys=True))
    with open(path, "ab") as fh:
        # Cut just past the marker's text and rewrite its newline with the block.
        fh.truncate(end)
        fh.write((("\n" if end else "") + "\n".join(lines) + "\n").encode("utf-8"))


def load_history(path: str | Path) -> HistoryStore:
    """Rebuild a HistoryStore from a record log.

    Trailing records not followed by their cycle marker belong to an
    interrupted cycle and are discarded, so recovery after a crash is a
    simple truncation; the next append_history makes that cut in the file.
    """
    store = HistoryStore()
    pending: list[ExecutionRecord] = []
    # Lines end at "\n" only, as append_history's backward scan splits them.
    with open(path, encoding="utf-8", newline="\n") as fh:
        for number, line in enumerate(fh, 1):
            try:
                item = _parse_line(line)
                if item is None:
                    continue
                if type(item) is ExecutionRecord:
                    pending.append(item)
                    continue
                if item.cycle != store.current_cycle:
                    raise ValueError(
                        f"history cycle marker {item.cycle} does not match "
                        f"expected {store.current_cycle}"
                    )
                store.add_cycle(pending)
            except DuplicateRecordError as exc:
                # Same class and fields, located at the marker closing the block.
                exc.args = (f"{path}:{number}: {exc}",)
                raise
            except ValueError as exc:
                raise ValueError(f"{path}:{number}: {exc}") from exc
            pending = []
    return store
