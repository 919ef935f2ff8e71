"""Schedule checks and quality references computed outside the scheduler.

Nothing here calls ``check_schedule`` or reads ``Schedule.objective``, so a
defect in either cannot hide a bad schedule. The feasible seed reuses the
program's own seeding steps (``PackedInstance``, ``greedy_assignment`` and
``ensure_obligatory_coverage``) because it is the floor the solver promises
to beat; everything it is compared with is recomputed here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from cisched.scheduling import (
    PackedInstance,
    ensure_obligatory_coverage,
    greedy_assignment,
)

# The program's documented exact grids: priority in 1e-9 steps, time in
# microseconds. Sums on these grids do not depend on summation order.
PRIORITY_STEPS = 10**9
TIME_STEPS = 10**6


def priority_units(priority: float) -> int:
    return int(round(priority * PRIORITY_STEPS))


def time_units(seconds: float) -> int:
    return int(round(seconds * TIME_STEPS))


def check_assignments(
    assignments: Mapping[str, Sequence[str]],
    prioritized: Sequence,
    agents: Sequence,
) -> tuple[list[str], int]:
    """Budget, compatibility and uniqueness problems, plus obligatory tests left out.

    ``prioritized`` is the cycle's eligible tests (``PrioritizedTest``) and
    ``agents`` its active agents. Returns the problems found and the number
    of obligatory tests the schedule does not place; whether a drop is a
    problem depends on the scheduler, so the caller decides.
    """
    tests = {p.test.id: p.test for p in prioritized}
    budgets = {a.id: time_units(a.budget) for a in agents}
    problems: list[str] = []
    placed: set[str] = set()
    for agent_id, test_ids in assignments.items():
        if agent_id not in budgets:
            problems.append(f"unknown agent {agent_id!r}")
            continue
        used = 0
        for test_id in test_ids:
            test = tests.get(test_id)
            if test is None:
                problems.append(f"unknown test {test_id!r} on {agent_id!r}")
                continue
            if test_id in placed:
                problems.append(f"test {test_id!r} placed twice")
            placed.add(test_id)
            if agent_id not in test.compatible_agents:
                problems.append(f"test {test_id!r} incompatible with {agent_id!r}")
            used += time_units(test.avg_duration)
        if used > budgets[agent_id]:
            problems.append(f"agent {agent_id!r} over budget: {used} > {budgets[agent_id]} us")
    dropped = sum(1 for t in tests.values() if t.obligatory and t.id not in placed)
    return problems, dropped


def scheduled_priority_units(assignments: Mapping[str, Sequence[str]], prioritized: Sequence) -> int:
    priority = {p.test.id: p.priority for p in prioritized}
    return sum(priority_units(priority[t]) for tests in assignments.values() for t in tests)


def pooled_fractional_bound(prioritized: Sequence, agents: Sequence) -> Fraction:
    """Upper bound on scheduled priority, in priority units.

    One knapsack whose capacity is the sum of agent budgets, with
    compatibility and obligatory constraints dropped, solved as its
    fractional relaxation: take tests by priority density and a fraction of
    the first that does not fit (Martello & Toth, Knapsack Problems, 1990,
    ch. 2). Exact rational arithmetic, so the bound is never rounded below
    an optimum.
    """
    capacity = sum(time_units(a.budget) for a in agents)
    items = [(priority_units(p.priority), time_units(p.test.avg_duration)) for p in prioritized]
    items.sort(key=lambda item: Fraction(item[0], item[1]), reverse=True)
    bound = Fraction(0)
    for prio, dur in items:
        if dur <= capacity:
            bound += prio
            capacity -= dur
        else:
            bound += Fraction(prio * capacity, dur)
            break
    return bound


def priority_gap_pct(assignments: Mapping[str, Sequence[str]], prioritized: Sequence, agents: Sequence) -> float:
    """Distance of the scheduled priority below the pooled bound, in percent of the bound."""
    bound = pooled_fractional_bound(prioritized, agents)
    if bound == 0:
        return 0.0
    return float(100 * (bound - scheduled_priority_units(assignments, prioritized)) / bound)


def objective_units(pairs: Mapping[str, str], instance) -> tuple[int, int, int]:
    """(priority, pair staleness, used time) sums for test -> agent pairs.

    Staleness follows the documented rule: cycles since the pair last ran,
    capped, and the cap for a pair that never ran; zero without diversity.
    """
    by_id = {p.test.id: p for p in instance.prioritized}
    cap = instance.staleness_cap
    prio = stale = used = 0
    for test_id, agent_id in pairs.items():
        entry = by_id[test_id]
        prio += priority_units(entry.priority)
        used += time_units(entry.test.avg_duration)
        if instance.diversity:
            last = instance.pair_last_cycle.get((test_id, agent_id))
            stale += cap if last is None else min(max(instance.current_cycle - last, 0), cap)
    return prio, stale, used


def schedule_pairs(assignments: Mapping[str, Sequence[str]]) -> dict[str, str]:
    return {t: a for a, tests in assignments.items() for t in tests}


def feasible_seed(instance) -> tuple[dict[str, str], bool]:
    """The solver's starting point: greedy first-fill, reseeded if it drops an obligatory test.

    Returns the seed as test -> agent pairs and whether the obligatory
    reseed was needed.
    """
    packed = PackedInstance(instance)
    assign = greedy_assignment(packed)
    reseeded = any(packed.oblig[i] and assign[i] < 0 for i in range(packed.n))
    if reseeded:
        assign = greedy_assignment(packed, initial_assign=ensure_obligatory_coverage(packed))
    pairs = {packed.test_ids[i]: packed.agent_ids[j] for i, j in enumerate(assign) if j >= 0}
    return pairs, reseeded


def check_optimal(assignments: Mapping[str, Sequence[str]], instance) -> tuple[list[str], float]:
    """Problems of an optimizing scheduler's schedule, and its priority gain over the seed in percent.

    On top of :func:`check_assignments`, every obligatory test must be
    placed and the objective must be at least the feasible seed's.
    """
    problems, dropped = check_assignments(assignments, instance.prioritized, instance.agents)
    if dropped:
        problems.append(f"{dropped} obligatory tests not placed")
    seed_pairs, _ = feasible_seed(instance)
    seed = objective_units(seed_pairs, instance)
    result = objective_units(schedule_pairs(assignments), instance)
    if result < seed:
        problems.append(f"objective {result} below the feasible seed {seed}")
    gain = 100.0 * (result[0] - seed[0]) / seed[0] if seed[0] else 0.0
    return problems, gain
