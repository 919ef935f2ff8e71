"""Closed-loop CI simulation: filter, prioritize, schedule, execute, collect, report."""

from __future__ import annotations

import json
import logging
import shutil
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

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
    save_plan,
    save_result,
)
from cisched.priority import PriorityWeights, prioritize_all
from cisched.reporting import CycleReport, make_cycle_report, save_report
from cisched.scheduling import build_instance, schedule_greedy
from cisched.solver import SolveStats, solve_detailed

logger = logging.getLogger(__name__)


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
    return _run_cycle(state).report


def _run_cycle(state: SimulationState) -> _CycleArtifacts:
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
    logger.info("cycle %d: executing %d plans", cycle, len(plans))
    results = [execute_plan(plan, cfg.outcome_model) for plan in plans]
    collect_results(results, state.history)
    report = make_cycle_report(cycle, schedule, prioritized, active_agents, results)
    logger.info(
        "cycle %d: utilization %.4f, %d executed, %d failed",
        cycle,
        report.overall_utilization,
        report.executed_count,
        report.fail_count,
    )
    return _CycleArtifacts(report, tuple(plans), tuple(results), stats, wall_ms)


def run_simulation(
    config: SimulationConfig,
    tests: Sequence[TestCase],
    agents: Sequence[TestAgent],
    history_path: str | Path | None = None,
) -> list[CycleReport]:
    """Run config.cycles cycles, persisting artifacts as they are produced.

    With an out_dir set, each cycle writes its plans, results, and report
    under cycle_<n>/ and appends to history.jsonl before the next cycle
    starts, so partial runs are inspectable and a failed cycle leaves the
    persisted history exactly as it was. Cycle directories an earlier run
    left from this run's first cycle on are removed first. Solver timings
    go to a separate timings.jsonl: they vary run to run, while everything
    else is byte-stable for fixed seeds. A run that continues the log at
    ``history_path`` starts history.jsonl as a copy of that log's bytes;
    its first append cuts the records of an interrupted cycle after the
    last cycle marker, which load_history discards too.
    """
    # Read before the output log is rewritten, since out_dir may hold the
    # input log, and only once, since a pipe gives its bytes once. The first
    # append cuts any interrupted cycle the copy ends with.
    history, prior = load_history_copy(history_path) if history_path else (HistoryStore(), b"")
    state = SimulationState(tests=list(tests), agents=list(agents), history=history, config=config)
    out = Path(config.out_dir) if config.out_dir else None
    log_path = None
    timings_path = None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        # Lower cycle directories hold the reports of the cycles continued.
        for n, stale in cycle_dirs(out):
            if n >= state.history.current_cycle:
                shutil.rmtree(stale)
        log_path = out / "history.jsonl"
        timings_path = out / "timings.jsonl"
        log_path.write_bytes(prior)
        timings_path.write_text("", encoding="utf-8")

    reports: list[CycleReport] = []
    for _ in range(config.cycles):
        cycle = state.history.current_cycle
        try:
            artifacts = _run_cycle(state)
        except Exception as exc:
            raise CycleError(cycle, exc) from exc
        reports.append(artifacts.report)
        if out is not None:
            for plan in artifacts.plans:
                save_plan(plan, plan_path(out, cycle, plan.agent_id))
            for result in artifacts.results:
                save_result(result, result_path(out, cycle, result.agent_id))
            save_report(artifacts.report, report_path(out, cycle))
            records = []
            for result in sorted(artifacts.results, key=lambda r: r.agent_id):
                records.extend(result.records)
            append_history(log_path, records, cycle)
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
            with open(timings_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(timing, sort_keys=True) + "\n")
    return reports
