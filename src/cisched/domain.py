"""Core domain model: test cases, agents, execution history, eligibility filtering."""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

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


def append_history(path: str | Path, records: Sequence[ExecutionRecord], completed_cycle: int) -> None:
    """Append one completed cycle (its records plus a completion marker) to a history log.

    A block load_history would reject raises before the file is opened.
    """
    _check_cycle_block(records, completed_cycle)
    with open(path, "a", encoding="utf-8") as fh:
        for r in records:
            line = {"type": "record", **codec.encode_fields(r)}
            fh.write(json.dumps(line, sort_keys=True) + "\n")
        marker = {"type": "cycle", **codec.encode(_CycleMarker(completed_cycle))}
        fh.write(json.dumps(marker, sort_keys=True) + "\n")


def load_history(path: str | Path) -> HistoryStore:
    """Rebuild a HistoryStore from a record log.

    Trailing records not followed by their cycle marker belong to an
    interrupted cycle and are discarded, so recovery after a crash is a
    simple truncation.
    """
    store = HistoryStore()
    pending: list[ExecutionRecord] = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                if type(obj) is not dict:
                    raise ValueError("expected an object")
                kind = obj.pop("type", None)
                if kind == "record":
                    pending.append(codec.decode_fields(ExecutionRecord, obj))
                    continue
                if kind != "cycle":
                    raise ValueError(f"unknown history line type: {kind!r}")
                cycle = codec.decode(_CycleMarker, obj).cycle
                if cycle != store.current_cycle:
                    raise ValueError(
                        f"history cycle marker {cycle} does not match expected {store.current_cycle}"
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
