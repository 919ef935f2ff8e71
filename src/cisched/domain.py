"""Core domain model: test cases, agents, execution history, eligibility filtering."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import stat
import tempfile
from dataclasses import dataclass, field
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
        expected = _expected_positive(t.avg_duration)
        if expected:
            violations.append(
                Violation(
                    ViolationKind.NON_POSITIVE_DURATION,
                    t.id,
                    f"test {t.id!r} has avg_duration {t.avg_duration}, expected {expected}",
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
        expected = _expected_positive(a.budget)
        if expected:
            violations.append(
                Violation(
                    ViolationKind.NON_POSITIVE_BUDGET,
                    a.id,
                    f"agent {a.id!r} has budget {a.budget}, expected {expected}",
                )
            )

    return ValidationResult(tuple(violations))


def _expected_positive(value: float) -> str | None:
    """What a duration or budget must be that ``value`` is not, or None."""
    if not value > 0:
        return "> 0"
    if value == math.inf:
        return "a finite value"
    return None


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


@dataclass
class HistoryStore:
    """Execution history reduced to what prioritization reads.

    The fields are the whole state, and the checkpoint stores them as they
    are: ``last`` maps a test to the last cycle it ran; ``fails`` spells its
    results oldest first, "f" for a fail and "p" for a pass; ``pair_last``
    maps a test and an agent to the last cycle that pair ran. Only
    :meth:`add_cycle`, from a single writer, changes it; readers may share
    it between calls.
    """

    current_cycle: int = 0
    last: dict[str, int] = field(default_factory=dict)
    fails: dict[str, str] = field(default_factory=dict)
    pair_last: dict[str, dict[str, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for test_id, text in self.fails.items():
            if text.count("f") + text.count("p") != len(text):
                raise ValueError(f"fail flags of {test_id!r} hold letters other than f and p")

    def add_cycle(self, records: Sequence[ExecutionRecord]) -> None:
        """Record the current cycle and advance; a rejected block changes nothing."""
        _check_cycle_block(records, self.current_cycle)
        for r in records:
            self.last[r.test_id] = r.cycle
            letter = "f" if r.outcome is Outcome.FAIL else "p"
            self.fails[r.test_id] = self.fails.get(r.test_id, "") + letter
            self.pair_last.setdefault(r.test_id, {})[r.agent_id] = r.cycle
        self.current_cycle += 1


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
    try:
        obj = json.loads(line)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
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
    final = True  # the first line parsed is the log's last, the only one without a newline
    while end > 0:
        start = max(0, end - block)
        fh.seek(start)
        lines = fh.read(end - start).split(b"\n")
        # Unless the read began at the start of the file, its first piece may
        # be the tail of a line; the next, larger read parses it whole.
        line_end = end
        for line in reversed(lines[1:] if start else lines):
            try:
                item = _parse_line(line.decode("utf-8"))
            except ValueError:
                if not final:
                    raise
                item = None  # a torn write, cut with the interrupted cycle
            final = False
            if isinstance(item, _CycleMarker):
                return item.cycle + 1, line_end
            line_end -= len(line) + 1
        end = start + len(lines[0]) if start else 0
        block *= 2
    return 0, 0


def append_history(path: str | Path, records: Sequence[ExecutionRecord], completed_cycle: int) -> None:
    """Append one completed cycle (its records plus a completion marker) to a history log.

    The block replaces whatever follows the log's last cycle marker: the
    records of an interrupted cycle, a torn last line included, are cut, as
    load_history discards them, and a marker that lacks its final newline
    gets one. A block load_history would reject, or one whose cycle is not
    the one after the log's last marker (0 for a missing or marker-less
    log), raises and leaves the log as it was.
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
    write = codec.line_writer(ExecutionRecord, type="record")
    lines = [write(r) for r in records]
    marker = codec.line_writer(_CycleMarker, type="cycle", format_version=codec.FORMAT_VERSION)
    lines.append(marker(_CycleMarker(completed_cycle)))
    with open(path, "ab") as fh:
        # Cut just past the marker's text and rewrite its newline with the block.
        fh.truncate(end)
        fh.write((("\n" if end else "") + "\n".join(lines) + "\n").encode("utf-8"))


# Bytes per read while a log's checkpointed prefix is hashed, so memory
# stays flat however long the log grows.
_READ_BLOCK = 1 << 16


@dataclass(frozen=True)
class _Checkpoint:
    """A HistoryStore as of a cycle marker, and the log prefix it came from.

    The log's first ``log_bytes`` bytes are ``log_lines`` lines, the last
    one that marker with its newline, and hash to ``log_sha256``.
    """

    log_bytes: int
    log_lines: int
    log_sha256: str
    store: HistoryStore


def _read_checkpoint(path: Path) -> _Checkpoint | None:
    """The checkpoint at path, or None if it is missing or does not decode."""
    try:
        return codec.decode(_Checkpoint, json.loads(path.read_bytes()))
    except (OSError, ValueError, RecursionError):
        return None


def _write_checkpoint(
    path: Path, mode: int, store: HistoryStore, log_bytes: int, log_lines: int, digest: str
) -> None:
    """Replace the checkpoint atomically; a failed write leaves the old one or none.

    The checkpoint takes the log's read and write permissions (mode), so
    every account that can read the log can read it too.
    """
    checkpoint = _Checkpoint(log_bytes, log_lines, digest, store)
    data = json.dumps(codec.encode(checkpoint), separators=(",", ":")).encode("utf-8")
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fd, stat.S_IMODE(mode) & 0o666)
            fh.write(data)
        os.replace(tmp, path)
    except OSError:
        # The checkpoint is a cache: without it the next load replays the
        # whole log, which is slower but gives the same store.
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def _hash_prefix(fh: BinaryIO, digest: hashlib._Hash, size: int) -> str | None:
    """Feed the next size bytes to digest; its hex digest, or None at an early end."""
    while size > 0:
        block = fh.read(min(size, _READ_BLOCK))
        if not block:
            return None
        digest.update(block)
        size -= len(block)
    return digest.hexdigest()


def load_history(path: str | Path) -> HistoryStore:
    """Rebuild a HistoryStore from a record log.

    Trailing records not followed by their cycle marker belong to an
    interrupted cycle and are discarded, so recovery after a crash is a
    simple truncation; the next append_history makes that cut in the file.
    A last line that lacks its newline and does not parse is the torn end
    of such a cycle and is discarded with it; any other line that does not
    parse is an error naming its line.

    A checkpoint beside the log, ``<log>.checkpoint``, holds the store as
    of a cycle marker and the SHA-256 of the log through that marker's
    line. When the log still starts with those bytes, only the lines after
    them are parsed; in every other case the whole log is. A load that
    parses a cycle marker past the checkpoint rewrites it. The checkpoint
    is a cache: the store, and every error with its line number, are the
    same without it. A log that is not a regular file, such as a pipe, is
    read forward once and gets no checkpoint.
    """
    with open(path, "rb") as fh:
        return _load(path, fh, os.fstat(fh.fileno()).st_mode)


def load_history_copy(path: str | Path) -> tuple[HistoryStore, bytes]:
    """load_history(path), and the log's bytes, reading the log only once.

    The bytes are read whole and loaded from memory, so a pipe, such as
    ``<(cat log)``, gives them once, and a regular file still gets its
    checkpoint.
    """
    with open(path, "rb") as fh:
        mode = os.fstat(fh.fileno()).st_mode
        data = fh.read()
    return _load(path, io.BytesIO(data), mode), data


def _load(path: str | Path, fh: BinaryIO, mode: int) -> HistoryStore:
    """The store of the log at path, read from fh; mode is the log's st_mode."""
    log = Path(path)
    checkpoint_path = log.with_name(log.name + ".checkpoint")
    # Only a regular file can be read again from its start, and only
    # beside one does a checkpoint describe the bytes read; a pipe or
    # other stream is read forward once, without a checkpoint.
    checkpoint = _read_checkpoint(checkpoint_path) if stat.S_ISREG(mode) else None
    digest = hashlib.sha256()
    store, offset, number = HistoryStore(), 0, 0
    if checkpoint is not None:
        if _hash_prefix(fh, digest, checkpoint.log_bytes) == checkpoint.log_sha256:
            store, offset = checkpoint.store, checkpoint.log_bytes
            number = checkpoint.log_lines
        else:
            fh.seek(0)
            digest = hashlib.sha256()
    mark = _replay(path, fh, store, digest, offset, number)
    if mark is not None and stat.S_ISREG(mode):
        _write_checkpoint(checkpoint_path, mode, store, *mark)
    return store


def _replay(
    path: str | Path,
    fh: BinaryIO,
    store: HistoryStore,
    digest: hashlib._Hash,
    offset: int,
    number: int,
) -> tuple[int, int, str] | None:
    """Parse the log from offset, line number + 1 on, into store.

    digest has taken the log's bytes before offset, and takes the bytes
    through each cycle marker parsed. Returns the byte count, line count
    and digest of the log through the last marker parsed, which the store
    is now at, or None if there is none or it lacks its newline.
    """
    pending: list[ExecutionRecord] = []
    mark = None
    # Binary lines end at "\n" only, as append_history's backward scan splits them.
    for line in fh:
        number += 1
        offset += len(line)
        digest.update(line)
        try:
            item = _parse_line(line.decode("utf-8"))
        except ValueError as exc:
            if line.endswith(b"\n"):
                raise ValueError(f"{path}:{number}: {exc}") from exc
            break  # the torn last line of an interrupted cycle
        if item is None:
            continue
        if type(item) is ExecutionRecord:
            pending.append(item)
            continue
        try:
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
        mark = (offset, number, digest.hexdigest()) if line.endswith(b"\n") else None
    return mark
