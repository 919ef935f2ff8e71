"""Closed-loop CI simulation: filter, prioritize, schedule, execute, collect, report."""

from __future__ import annotations

import json
import logging
import os
import select
import shutil
import sys
import time
from collections import deque
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Sequence, TypeVar

from cisched import codec, cyclewriter
from cisched.domain import (
    HistoryStore,
    TestAgent,
    TestCase,
    append_history,
    filter_eligible,
    load_history_copy,
)
from cisched.execution import (
    AgentResult,
    OutcomeModel,
    TestPlan,
    collect_results,
    cycle_dirs,
    emit_test_plans,
    execute_plan,
    plan_path,
    report_path,
    result_path,
    # The cycle writer writes the files that save_plan, save_result and
    # save_report would; perfbench's tracer still wraps the names here.
    save_plan,
    save_result,
)
from cisched.priority import PrioritizedTest, PriorityWeights, prioritize_all
from cisched.reporting import CycleReport, make_cycle_report, save_report
from cisched.scheduling import Schedule, build_instance, schedule_greedy
from cisched.solver import SolveStats, solve_detailed

logger = logging.getLogger(__name__)

_T = TypeVar("_T")


class SchedulerKind(str, Enum):
    GREEDY = "greedy"
    OPTIMAL = "optimal"


@dataclass(frozen=True)
class SimulationConfig:
    """Everything one simulation run needs besides the repository itself."""

    cycles: int
    scheduler: SchedulerKind
    weights: PriorityWeights
    outcome_model: OutcomeModel
    solver_time_budget_ms: int = 2000
    out_dir: str | None = None
    pair_staleness_cap: int = 8
    diversity: bool = True
    backend: str = "auto"

    def __post_init__(self) -> None:
        if self.cycles < 1:
            raise ValueError("cycles must be >= 1")


@dataclass
class SimulationState:
    """Mutable loop state: the repository plus the history it accumulates."""

    tests: list[TestCase]
    agents: list[TestAgent]
    history: HistoryStore
    config: SimulationConfig


class CycleError(Exception):
    """A simulation cycle failed; carries the failing cycle index."""

    def __init__(self, cycle: int, cause: Exception) -> None:
        super().__init__(f"cycle {cycle} failed: {cause}")
        self.cycle = cycle


@dataclass(frozen=True)
class _Scheduled:
    """A cycle up to its emitted plans; the history is only read so far."""

    cycle: int
    prioritized: list[PrioritizedTest]
    agents: list[TestAgent]
    schedule: Schedule
    plans: list[TestPlan]
    stats: SolveStats | None
    wall_ms: float


@dataclass(frozen=True)
class _CycleArtifacts:
    report: CycleReport
    plans: tuple[TestPlan, ...]
    results: tuple[AgentResult, ...]
    stats: SolveStats | None
    wall_ms: float


def run_cycle(state: SimulationState) -> CycleReport:
    """Run one full cycle, advancing the history.

    Pipeline order is fixed: filter, prioritize, schedule, emit plans,
    execute, collect. An InfeasibleError from the scheduler propagates and
    leaves the history untouched, since collection is the only mutation and
    happens last.
    """
    return _finish_cycle(state, _schedule_cycle(state)).report


def _schedule_cycle(state: SimulationState) -> _Scheduled:
    """Filter, prioritize, schedule and emit the plans."""
    cfg = state.config
    cycle = state.history.current_cycle
    logger.info("cycle %d: filtering repository", cycle)
    eligible, active_agents = filter_eligible(state.tests, state.agents)
    logger.info("cycle %d: prioritizing %d eligible tests", cycle, len(eligible))
    prioritized = prioritize_all(eligible, state.history, cfg.weights, cycle)
    logger.info(
        "cycle %d: scheduling %d tests on %d agents (%s)",
        cycle,
        len(prioritized),
        len(active_agents),
        cfg.scheduler.value,
    )
    instance = build_instance(
        prioritized,
        active_agents,
        state.history.pair_last,
        cycle,
        solver_time_budget_ms=cfg.solver_time_budget_ms,
        staleness_cap=cfg.pair_staleness_cap,
        diversity=cfg.diversity,
    )
    stats: SolveStats | None = None
    if cfg.scheduler is SchedulerKind.GREEDY:
        t0 = time.perf_counter()
        schedule = schedule_greedy(instance)
        wall_ms = (time.perf_counter() - t0) * 1000.0
    else:
        schedule, stats = solve_detailed(instance, backend=cfg.backend)
        wall_ms = stats.wall_ms
    logger.info("cycle %d: emitting plans for %d tests", cycle, schedule.size)
    plans = emit_test_plans(schedule, prioritized, active_agents, cycle)
    return _Scheduled(cycle, prioritized, active_agents, schedule, plans, stats, wall_ms)


def _finish_cycle(state: SimulationState, scheduled: _Scheduled) -> _CycleArtifacts:
    """Execute the plans, collect their results into the history and report."""
    cycle = scheduled.cycle
    logger.info("cycle %d: executing %d plans", cycle, len(scheduled.plans))
    results = [execute_plan(plan, state.config.outcome_model) for plan in scheduled.plans]
    collect_results(results, state.history)
    report = make_cycle_report(
        cycle, scheduled.schedule, scheduled.prioritized, scheduled.agents, results
    )
    logger.info(
        "cycle %d: utilization %.4f, %d executed, %d failed",
        cycle,
        report.overall_utilization,
        report.executed_count,
        report.fail_count,
    )
    return _CycleArtifacts(
        report, tuple(scheduled.plans), tuple(results), scheduled.stats, scheduled.wall_ms
    )


def _cycle_files(out: Path, cycle: int, artifacts: _CycleArtifacts) -> list[tuple[str, bytes]]:
    """The cycle directory's files as (path, bytes), the report last."""
    files = [(str(plan_path(out, cycle, p.agent_id)), codec.file_bytes(p)) for p in artifacts.plans]
    files += [
        (str(result_path(out, cycle, r.agent_id)), codec.file_bytes(r)) for r in artifacts.results
    ]
    files.append((str(report_path(out, cycle)), codec.file_bytes(artifacts.report)))
    return files


class _CycleWriter:
    """Persists each cycle under out: its directory, then its log lines.

    The files are written by a writer process (cyclewriter.py) on another
    CPU. With one CPU, or where the CPU set is unknown, put writes them in
    this process. A cycle enters history.jsonl and timings.jsonl only once
    its files are written, so the log never names a cycle whose directory
    is incomplete.

    put never waits: it logs the cycles the writer has answered for and
    holds the cycle's encoded files. The loop calls catch_up once the next
    cycle's plans are emitted; it sends the held files into a pipe large
    enough to take them, so the writer writes them while that cycle
    executes and reports rather than while it schedules. At most IN_FLIGHT
    cycles are sent and not yet answered for; catch_up waits for the
    writer beyond that, polling for up to POLL_S before it blocks. On a
    2-CPU host, runs in which this process slept on the writer's answers
    or on a full pipe scheduled more slowly, by up to a quarter.
    """

    # Cycles sent but not yet answered for, at most.
    IN_FLIGHT = 2
    # How long a wait for the writer polls before it blocks.
    POLL_S = 0.01
    # The pipe capacity asked for: IN_FLIGHT cycles of 500 tests on 8
    # agents (about 105 KB each) fit, where Linux's default of 64 KiB
    # holds one cycle of 200 tests on 4 agents only just.
    PIPE_BYTES = 1 << 20

    def __init__(self, out: Path) -> None:
        self._out = out
        self._log_path = out / "history.jsonl"
        self._timings_path = out / "timings.jsonl"
        # The cycles sent to the writer process, oldest first, and the one
        # put holds back while IN_FLIGHT are out.
        self._sent: deque[tuple[int, _CycleArtifacts]] = deque()
        self._held: tuple[int, _CycleArtifacts, list[tuple[str, bytes]]] | None = None
        self._proc = None
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:
            cpus = 1
        if cpus > 1:
            # Imported here: about 4 ms that a run without out_dir skips.
            import subprocess

            # A fresh interpreter, since a fork would share this process's
            # pages and slow it with copy-on-write faults. Unbuffered, so
            # that close never flushes into a writer that has exited.
            self._proc = subprocess.Popen(
                [sys.executable, "-I", "-S", cyclewriter.__file__],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                bufsize=0,
            )
            try:
                import fcntl

                fcntl.fcntl(self._proc.stdin.fileno(), fcntl.F_SETPIPE_SZ, self.PIPE_BYTES)
            except (ImportError, AttributeError, OSError):
                # Not Linux, or over the user's pipe limit: the default
                # pipe works, with more waits on a full pipe.
                pass

    def put(self, cycle: int, artifacts: _CycleArtifacts) -> None:
        """Write the cycle's directory, logging every earlier cycle whose files are written."""
        files = _cycle_files(self._out, cycle, artifacts)
        if self._proc is None:
            cyclewriter.write_files(files)
            self._log(cycle, artifacts)
            return
        self._collect(wait=False)
        self._held = (cycle, artifacts, files)

    def catch_up(self) -> None:
        """Wait until fewer than IN_FLIGHT cycles are out, then send the cycle put held."""
        if self._proc is None:
            return
        while len(self._sent) >= self.IN_FLIGHT:
            self._collect(wait=True)
        self._send_held()

    def flush(self) -> None:
        """Log every cycle put, once its files are written; raise the error of a failed write."""
        if self._proc is None:
            return
        self.catch_up()
        while self._sent:
            self._collect(wait=True)

    def close(self) -> None:
        """End the writer process's input and wait for it to exit."""
        if self._proc is not None:
            self._proc.stdin.close()
            self._proc.wait()
            self._proc.stdout.close()

    def _collect(self, wait: bool) -> None:
        """Log the sent cycles the writer has answered for, waiting for one answer if wait."""
        answers = self._proc.stdout
        if wait and self._sent:
            # Poll before blocking: an answer usually comes within a few
            # milliseconds, and the loop stays on its CPU meanwhile.
            deadline = time.perf_counter() + self.POLL_S
            while not select.select([answers], [], [], 0)[0] and time.perf_counter() < deadline:
                pass
        while self._sent and (wait or select.select([answers], [], [], 0)[0]):
            wait = False
            reply = answers.readline()
            if not reply:
                self._exited()
            if reply != cyclewriter.OK:
                cyclewriter.raise_reply(reply)
            self._log(*self._sent.popleft())

    def _send_held(self) -> None:
        if self._held is not None and len(self._sent) < self.IN_FLIGHT:
            cycle, artifacts, files = self._held
            self._held = None
            self._send(files)
            self._sent.append((cycle, artifacts))

    def _log(self, cycle: int, artifacts: _CycleArtifacts) -> None:
        records = []
        for result in sorted(artifacts.results, key=lambda r: r.agent_id):
            records.extend(result.records)
        append_history(self._log_path, records, cycle)
        timing = {
            "cycle": cycle,
            "solver_wall_time_ms": artifacts.wall_ms,
            "nodes": artifacts.stats.nodes if artifacts.stats else 0,
            "completed": artifacts.stats.completed if artifacts.stats else True,
            # A greedy cycle's schedule is the first-fill itself.
            "seed": artifacts.stats.seed if artifacts.stats else "greedy",
            # A greedy cycle runs no search.
            "stop": artifacts.stats.stop if artifacts.stats else None,
        }
        with open(self._timings_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(timing, sort_keys=True) + "\n")

    def _send(self, files: list[tuple[str, bytes]]) -> None:
        header = json.dumps([[path, len(data)] for path, data in files]).encode("ascii")
        frame = memoryview(b"".join([header, b"\n", *(data for _, data in files)]))
        try:
            while frame:
                frame = frame[self._proc.stdin.write(frame):]
        except BrokenPipeError:
            # A writer that stopped at a failed write answered for it first.
            while self._sent:
                self._collect(wait=True)
            self._exited()

    def _exited(self) -> None:
        raise OSError(f"the cycle writer exited with status {self._proc.wait()}")


def run_simulation(
    config: SimulationConfig,
    tests: Sequence[TestCase],
    agents: Sequence[TestAgent],
    history_path: str | Path | None = None,
) -> list[CycleReport]:
    """Run config.cycles cycles, persisting artifacts as they are produced.

    With an out_dir set, each cycle's plans, results and report go under
    cycle_<n>/, written by a writer process while the next cycle executes,
    or in this process on one CPU. A cycle is appended to history.jsonl only
    once its directory is complete, so partial runs are inspectable and
    the log never names a cycle whose files are missing. A failed cycle
    first logs every earlier cycle and leaves the log ending there; a
    failed write raises OSError naming the file, and the log ends at the
    cycle before it. Cycle directories an earlier run left from this run's
    first cycle on are removed first. Solver timings go to a separate
    timings.jsonl, appended with the log: they vary run to run, while
    everything else is byte-stable for fixed seeds. A run that continues
    the log at ``history_path`` starts history.jsonl as a copy of that
    log's bytes; its first append cuts the records of an interrupted cycle
    after the last cycle marker, which load_history discards too.
    """
    # Read before the output log is rewritten, since out_dir may hold the
    # input log, and only once, since a pipe gives its bytes once. The first
    # append cuts any interrupted cycle the copy ends with.
    history, prior = load_history_copy(history_path) if history_path else (HistoryStore(), b"")
    state = SimulationState(tests=list(tests), agents=list(agents), history=history, config=config)
    out = Path(config.out_dir) if config.out_dir else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        # Lower cycle directories hold the reports of the cycles continued.
        for n, stale in cycle_dirs(out):
            if n >= state.history.current_cycle:
                shutil.rmtree(stale)
        (out / "history.jsonl").write_bytes(prior)
        (out / "timings.jsonl").write_text("", encoding="utf-8")
    writer = _CycleWriter(out) if out is not None else None

    reports: list[CycleReport] = []
    try:
        for _ in range(config.cycles):
            cycle = state.history.current_cycle
            scheduled = _cycle_step(cycle, writer, _schedule_cycle, state)
            if writer is not None:
                writer.catch_up()
            artifacts = _cycle_step(cycle, writer, _finish_cycle, state, scheduled)
            reports.append(artifacts.report)
            if writer is not None:
                writer.put(cycle, artifacts)
        if writer is not None:
            writer.flush()
    finally:
        if writer is not None:
            writer.close()
    return reports


def _cycle_step(cycle: int, writer: _CycleWriter | None, step: Callable[..., _T], *args) -> _T:
    """Run one step of a cycle; on failure log every earlier cycle, then raise CycleError."""
    try:
        return step(*args)
    except Exception as exc:
        if writer is not None:
            writer.flush()
        raise CycleError(cycle, exc) from exc
