"""Test plan emission, simulated agent execution, result collection.

Agents run in-process but speak only through the serialized plan and
result formats, so the controller/agent boundary stays honest. Outcomes
are drawn from per-entry random streams, which makes results independent
of the order agents execute in.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from cisched import codec
from cisched.domain import ExecutionRecord, HistoryStore, Outcome, TestAgent
from cisched.priority import PrioritizedTest
from cisched.scheduling import Schedule


@dataclass(frozen=True)
class PlanEntry:
    test_id: str
    planned_duration: float
    priority: float


@dataclass(frozen=True)
class TestPlan:
    """One agent's ordered work list for one cycle."""

    agent_id: str
    cycle: int
    entries: tuple[PlanEntry, ...]


@dataclass(frozen=True)
class AgentResult:
    """What one agent reports back after running its plan."""

    agent_id: str
    cycle: int
    records: tuple[ExecutionRecord, ...]
    log_lines: tuple[str, ...]


@dataclass(frozen=True)
class OutcomeModel:
    """Stochastic stand-in for real test execution.

    Each test fails with its configured defect probability (or the default)
    and takes its planned duration scaled by a uniform jitter factor. The
    seed pins every draw.
    """

    defect_probabilities: Mapping[str, float]
    default_probability: float = 0.05
    duration_jitter: tuple[float, float] = (0.9, 1.1)
    seed: int = 0

    def __post_init__(self) -> None:
        for test_id, p in self.defect_probabilities.items():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"defect probability for {test_id!r} not in [0, 1]: {p}")
        if not 0.0 <= self.default_probability <= 1.0:
            raise ValueError(f"default probability not in [0, 1]: {self.default_probability}")
        lo, hi = self.duration_jitter
        if not 0 < lo <= hi < math.inf:
            raise ValueError(f"jitter interval must satisfy 0 < lo <= hi < inf, got [{lo}, {hi}]")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")

    def probability_for(self, test_id: str) -> float:
        return self.defect_probabilities.get(test_id, self.default_probability)


def emit_test_plans(
    schedule: Schedule,
    prioritized: Sequence[PrioritizedTest],
    agents: Sequence[TestAgent],
    cycle: int,
) -> list[TestPlan]:
    """One plan per agent with work, in agent input order.

    Entries carry the planned duration and priority from the prioritized
    list and keep the schedule's descending-priority order; flattening the
    plans reproduces the schedule's assignments exactly.
    """
    by_id = {p.test.id: p for p in prioritized}
    plans = []
    for agent in agents:
        test_ids = schedule.assignments.get(agent.id, ())
        if not test_ids:
            continue
        entries = tuple(
            PlanEntry(
                test_id=t_id,
                planned_duration=by_id[t_id].test.avg_duration,
                priority=by_id[t_id].priority,
            )
            for t_id in test_ids
        )
        plans.append(TestPlan(agent_id=agent.id, cycle=cycle, entries=entries))
    return plans


def _entry_seed(label: str) -> int:
    return int.from_bytes(hashlib.blake2b(label.encode(), digest_size=8).digest(), "big")


def _words(value: int) -> list[int]:
    """value as SeedSequence reads an int: little-endian uint32 words, [0] for 0."""
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


def execute_plan(plan: TestPlan, outcome_model: OutcomeModel) -> AgentResult:
    """Run one agent's plan against the outcome model.

    Every entry gets its own random stream keyed by (seed, agent, cycle,
    test): same inputs, same result, regardless of which other plans ran
    first. The outcome draw precedes the duration draw within a stream.
    """
    import numpy as np  # imported here, so that importing cisched does not load numpy

    records = []
    log_lines = []
    # SeedSequence turns an int tuple into these words itself; handing it
    # the uint32 array gives the same stream without the per-int coercion.
    head = _words(outcome_model.seed) + _words(_entry_seed(plan.agent_id)) + _words(plan.cycle)
    lo, hi = outcome_model.duration_jitter
    for entry in plan.entries:
        entropy = np.array(head + _words(_entry_seed(entry.test_id)), dtype=np.uint32)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
        failed = rng.random() < outcome_model.probability_for(entry.test_id)
        actual = entry.planned_duration * rng.uniform(lo, hi)
        outcome = Outcome.FAIL if failed else Outcome.PASS
        records.append(
            ExecutionRecord(
                test_id=entry.test_id,
                agent_id=plan.agent_id,
                cycle=plan.cycle,
                outcome=outcome,
                actual_duration=actual,
            )
        )
        log_lines.append(
            f"{entry.test_id}: {outcome.value} in {actual:.3f}s (planned {entry.planned_duration:.3f}s)"
        )
    return AgentResult(
        agent_id=plan.agent_id,
        cycle=plan.cycle,
        records=tuple(records),
        log_lines=tuple(log_lines),
    )


def collect_results(results: Sequence[AgentResult], history: HistoryStore) -> HistoryStore:
    """Merge all agents' results for the current cycle, then advance it.

    Single-writer barrier: call once per cycle after every agent finished.
    The merge is one all-or-nothing :meth:`HistoryStore.add_cycle`, in
    agent id order so errors do not depend on execution order.
    """
    for result in results:
        if result.cycle != history.current_cycle:
            raise ValueError(
                f"result for agent {result.agent_id!r} belongs to cycle {result.cycle}, "
                f"current cycle is {history.current_cycle}"
            )
    history.add_cycle(
        [rec for result in sorted(results, key=lambda r: r.agent_id) for rec in result.records]
    )
    return history


# A run directory holds one cycle_<n> directory per cycle, n in decimal
# without leading zeros; these functions alone name its entries.
_CYCLE_DIR = re.compile(r"cycle_(0|[1-9][0-9]*)")


def cycle_dir(out_dir: str | Path, cycle: int) -> Path:
    return Path(out_dir) / f"cycle_{cycle}"


def cycle_dirs(out_dir: str | Path) -> list[tuple[int, Path]]:
    """The run's cycle directories as (cycle, path), by cycle; other entries are skipped."""
    found = []
    for entry in Path(out_dir).glob("cycle_*"):
        match = _CYCLE_DIR.fullmatch(entry.name)
        if match:
            found.append((int(match[1]), entry))
    return sorted(found)


def plan_path(out_dir: str | Path, cycle: int, agent_id: str) -> Path:
    return cycle_dir(out_dir, cycle) / f"plan_{agent_id}.json"


def plan_paths(out_dir: str | Path, cycle: int) -> list[Path]:
    """Every plan file of the cycle, by file name."""
    return sorted(cycle_dir(out_dir, cycle).glob("plan_*.json"))


def result_path(out_dir: str | Path, cycle: int, agent_id: str) -> Path:
    return cycle_dir(out_dir, cycle) / f"result_{agent_id}.json"


def report_path(out_dir: str | Path, cycle: int) -> Path:
    return cycle_dir(out_dir, cycle) / "report.json"


def save_plan(plan: TestPlan, path: str | Path) -> None:
    codec.save(plan, path)


def load_plan(path: str | Path) -> TestPlan:
    return codec.load(TestPlan, path)


def save_result(result: AgentResult, path: str | Path) -> None:
    codec.save(result, path)


def load_result(path: str | Path) -> AgentResult:
    return codec.load(AgentResult, path)
