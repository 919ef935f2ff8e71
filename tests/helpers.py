"""Shared builders for tests: repositories, instances, seeded random generators."""

from __future__ import annotations

import os
from dataclasses import replace
from pathlib import Path

import numpy as np

from cisched import (
    PrioritizedTest,
    SchedulingInstance,
    TestAgent,
    TestCase,
    build_instance,
)


SRC = Path(__file__).resolve().parents[1] / "src"


def src_env(**extra: str) -> dict[str, str]:
    """Environment for a child Python process that imports cisched from this checkout."""
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath, **extra}


def make_test(
    test_id: str,
    duration: float = 1.0,
    static: float = 0.5,
    agents: tuple[str, ...] = ("a0",),
    obligatory: bool = False,
    active: bool = True,
) -> TestCase:
    return TestCase(
        id=test_id,
        avg_duration=duration,
        static_priority=static,
        compatible_agents=frozenset(agents),
        obligatory=obligatory,
        active=active,
    )


def make_agent(agent_id: str, budget: float = 10.0, active: bool = True) -> TestAgent:
    return TestAgent(id=agent_id, budget=budget, active=active)


def make_instance(
    entries,
    agents,
    pair_last=None,
    cycle: int = 0,
    time_budget_ms: int = 2000,
    staleness_cap: int = 8,
    diversity: bool = True,
) -> SchedulingInstance:
    """Build an instance from (TestCase, priority) pairs, sorting them properly.

    ``pair_last`` maps a test id to an agent id to the last cycle that pair ran.
    """
    prioritized = [PrioritizedTest(test, priority) for test, priority in entries]
    prioritized.sort(key=lambda p: (-p.priority, p.test.id))
    return build_instance(
        prioritized,
        agents,
        pair_last or {},
        cycle,
        solver_time_budget_ms=time_budget_ms,
        staleness_cap=staleness_cap,
        diversity=diversity,
    )


def trap_instance(scale: float = 1.0, time_budget_ms: int = 2000) -> SchedulingInstance:
    """One agent, one large high-priority test crowding out two that pack better.

    First-fill takes the single test and strands the rest of the budget; the
    exact schedule takes the pair instead.
    """
    agent = make_agent("a0", budget=10.0 * scale)
    entries = [
        (make_test("ta", duration=6.0 * scale), 0.5),
        (make_test("tb", duration=5.0 * scale), 0.4),
        (make_test("tc", duration=5.0 * scale), 0.4),
    ]
    return make_instance(entries, [agent], time_budget_ms=time_budget_ms)


def random_instance(
    rng: np.random.Generator,
    max_tests: int = 8,
    max_agents: int = 3,
    densities: tuple[float, ...] = (0.3, 0.6, 1.0),
    max_obligatory: int = 2,
    time_budget_ms: int = 2000,
    min_tests: int = 0,
) -> SchedulingInstance:
    """Seeded random instance with mixed density, histories, and obligatory tests."""
    n = int(rng.integers(min_tests, max_tests + 1))
    m = int(rng.integers(1, max_agents + 1))
    agent_ids = [f"a{j}" for j in range(m)]
    density = float(rng.choice(list(densities)))
    oblig_rows: set[int] = set()
    if max_obligatory and n:
        count = int(rng.integers(0, max_obligatory + 1))
        oblig_rows = set(rng.choice(n, size=min(count, n), replace=False).tolist())
    tests = []
    for i in range(n):
        mask = rng.random(m) < density
        if not mask.any():
            mask[int(rng.integers(m))] = True
        tests.append(
            TestCase(
                id=f"t{i:02d}",
                avg_duration=float(round(rng.uniform(0.5, 6.0), 3)),
                static_priority=float(round(rng.uniform(0.0, 1.0), 3)),
                compatible_agents=frozenset(
                    agent_ids[j] for j in range(m) if mask[j]
                ),
                obligatory=i in oblig_rows,
            )
        )
    agents = [
        TestAgent(id=a, budget=float(round(rng.uniform(3.0, 12.0), 2)))
        for a in agent_ids
    ]
    current = int(rng.integers(0, 15))
    pairs = {}
    for t in tests:
        # Draw in agent_ids order: a frozenset's order follows PYTHONHASHSEED.
        for a in agent_ids:
            if a in t.compatible_agents and rng.random() < 0.5:
                pairs.setdefault(t.id, {})[a] = int(rng.integers(0, current + 1)) if current else 0
    priorities = [float(round(rng.uniform(0.0, 1.0), 3)) for _ in tests]
    entries = list(zip(tests, priorities))
    return make_instance(
        entries, agents, pairs, cycle=current, time_budget_ms=time_budget_ms
    )


def objective_tuple(schedule) -> tuple[float, float, float]:
    obj = schedule.objective
    return (obj.total_priority, obj.diversity, obj.used_time)


def zero_tie_instance(rng: np.random.Generator, max_tests: int = 8) -> SchedulingInstance:
    """Small random instance in which some tests are worth nothing.

    Such a test takes 0 µs once quantized, has priority 0 and, with
    diversity on, ran on every compatible agent this cycle, so its pair
    staleness is 0 too. Placing or skipping it leaves the objective
    unchanged, and only the pair-list tie-break tells the schedules apart,
    including the case where one list is a strict prefix of the other.
    """
    base = random_instance(rng, max_tests=max_tests, max_obligatory=1, min_tests=1)
    zero = rng.random(len(base.prioritized)) < 0.4
    entries = []
    pairs = {t_id: dict(row) for t_id, row in base.pair_last.items()}
    for p, worthless in zip(base.prioritized, zero):
        if worthless:
            test = replace(p.test, avg_duration=1e-7)
            entries.append((test, 0.0))
            for a_id in test.compatible_agents:
                pairs.setdefault(test.id, {})[a_id] = base.current_cycle
        else:
            entries.append((p.test, p.priority))
    return make_instance(
        entries,
        base.agents,
        pairs,
        cycle=base.current_cycle,
        diversity=bool(rng.random() < 0.5),
    )


def history_readers(store, test_ids):
    """Everything a HistoryStore answers about the given tests, copied."""
    return (
        store.current_cycle,
        {t_id: dict(row) for t_id, row in store.pair_last.items()},
        {t: (store.last.get(t), store.fails.get(t, "")) for t in test_ids},
    )
