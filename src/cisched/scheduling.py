"""Scheduling types, exact objective arithmetic, the greedy first-fill baseline and the density-order fill."""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Collection, Mapping, Sequence

from cisched.domain import TestAgent
from cisched.priority import PrioritizedTest

# Objective sums are compared exactly across greedy, branch-and-bound, and the
# exhaustive oracle. Using integer units (priority in 1e-9 steps, time in
# microseconds, pair staleness in 1/cap steps) makes those sums independent of
# accumulation order, so equal schedules compare equal bit-for-bit.
PRIORITY_UNIT = 10**9
TIME_UNIT = 10**6


def quantize_priority(priority: float) -> int:
    return int(round(priority * PRIORITY_UNIT))


def quantize_seconds(seconds: float) -> int:
    return int(round(seconds * TIME_UNIT))


class InfeasibleError(Exception):
    """Some obligatory tests cannot be placed on any compatible agent within budgets."""

    def __init__(self, test_ids: Sequence[str]) -> None:
        ids = tuple(sorted(test_ids))
        super().__init__(f"obligatory tests cannot be scheduled: {', '.join(ids)}")
        self.test_ids = ids


@dataclass(frozen=True, order=True)
class ObjectiveVector:
    """Schedule quality, compared lexicographically.

    Total assigned priority dominates, then assignment diversity (sum of
    pair staleness), then used time. All three fields derive from exact
    integer sums, so vectors produced by different algorithms for the same
    assignment compare equal.
    """

    total_priority: float
    diversity: float
    used_time: float

    @classmethod
    def from_units(cls, priority_units: int, staleness_units: int, time_us: int, staleness_cap: int) -> ObjectiveVector:
        return cls(
            total_priority=priority_units / PRIORITY_UNIT,
            diversity=staleness_units / staleness_cap,
            used_time=time_us / TIME_UNIT,
        )


def pair_staleness_units(
    lasts: Collection[int | None], current_cycle: int, cap: int, diversity: bool
) -> list[int]:
    """Staleness units of pairs, given each pair's last cycle or None if it never ran.

    0 without diversity; cap for a pair that never ran; otherwise the
    cycles since it last ran, clamped to [0, cap].
    """
    if not diversity:
        return [0] * len(lasts)
    return [cap if last is None else min(max(current_cycle - last, 0), cap) for last in lasts]


class _PairView(Mapping):
    """Read-only (test id, agent id) -> last cycle view of a nested pair history."""

    def __init__(self, rows: Mapping[str, Mapping[str, int]]) -> None:
        self._rows = rows

    def __getitem__(self, key: tuple[str, str]) -> int:
        return self._rows[key[0]][key[1]]

    def __iter__(self):
        return ((t_id, a_id) for t_id, row in self._rows.items() for a_id in row)

    def __len__(self) -> int:
        return sum(map(len, self._rows.values()))


@dataclass(frozen=True)
class SchedulingInstance:
    """One cycle's scheduling input.

    ``prioritized`` must already be sorted by descending priority with test
    id as tie-break (the order :func:`cisched.priority.prioritize_all`
    produces). ``pair_last`` (test id -> agent id -> last cycle the pair
    ran) must refer only to ids present in the instance; build instances
    through :func:`build_instance` to get the filtering for free.
    """

    prioritized: tuple[PrioritizedTest, ...]
    agents: tuple[TestAgent, ...]
    pair_last: Mapping[str, Mapping[str, int]]
    current_cycle: int
    solver_time_budget_ms: int = 2000
    staleness_cap: int = 8
    diversity: bool = True

    def __post_init__(self) -> None:
        if self.solver_time_budget_ms <= 0:
            raise ValueError("solver_time_budget_ms must be > 0")
        if self.staleness_cap < 1:
            raise ValueError("staleness_cap must be >= 1")
        test_ids = {p.test.id for p in self.prioritized}
        if len(test_ids) != len(self.prioritized):
            raise ValueError("duplicate test ids in prioritized list")
        agent_ids = {a.id for a in self.agents}
        if len(agent_ids) != len(self.agents):
            raise ValueError("duplicate agent ids")
        for t_id, row in self.pair_last.items():
            if t_id not in test_ids or not agent_ids.issuperset(row):
                raise ValueError(f"pair_last row {t_id!r} refers to unknown ids")
        prev = None
        for p in self.prioritized:
            key = (-p.priority, p.test.id)
            if prev is not None and key < prev:
                raise ValueError("prioritized list is not sorted by descending priority")
            prev = key

    @property
    def pair_last_cycle(self) -> Mapping[tuple[str, str], int]:
        """``pair_last`` keyed by (test id, agent id), as a view; perfbench/quality.py reads it."""
        return _PairView(self.pair_last)


def build_instance(
    prioritized: Sequence[PrioritizedTest],
    agents: Sequence[TestAgent],
    pair_last: Mapping[str, Mapping[str, int]],
    current_cycle: int,
    solver_time_budget_ms: int = 2000,
    staleness_cap: int = 8,
    diversity: bool = True,
) -> SchedulingInstance:
    """Assemble an instance, copying the pair history rows of this cycle's ids only.

    ``pair_last`` is as HistoryStore holds it. (test id, agent id) keys, which
    perfbench's tests still pass, are regrouped first; other keys raise TypeError.
    """
    kinds = set(map(type, pair_last))
    if kinds == {tuple}:
        flat, pair_last = pair_last, {}
        for (t_id, a_id), c in flat.items():
            pair_last.setdefault(t_id, {})[a_id] = c
    elif not kinds <= {str}:
        raise TypeError("pair_last must map test ids to {agent id: last cycle} rows")
    agent_ids = {a.id for a in agents}
    last = {
        p.test.id: {a_id: c for a_id, c in pair_last[p.test.id].items() if a_id in agent_ids}
        for p in prioritized if p.test.id in pair_last
    }
    return SchedulingInstance(
        prioritized=tuple(prioritized),
        agents=tuple(agents),
        pair_last=last,
        current_cycle=current_cycle,
        solver_time_budget_ms=solver_time_budget_ms,
        staleness_cap=staleness_cap,
        diversity=diversity,
    )


@dataclass(frozen=True)
class Schedule:
    """Per-cycle assignment of tests to agents.

    ``assignments`` maps every instance agent to its test ids, ordered by
    descending priority. Each test appears at most once across all agents.
    """

    assignments: dict[str, tuple[str, ...]]
    objective: ObjectiveVector

    def assigned_pairs(self) -> list[tuple[str, str]]:
        return [(t, a) for a, tests in self.assignments.items() for t in tests]

    def assigned_tests(self) -> set[str]:
        return {t for tests in self.assignments.values() for t in tests}

    @property
    def size(self) -> int:
        return sum(len(tests) for tests in self.assignments.values())


class PackedInstance:
    """Integer form of a SchedulingInstance shared by all schedulers.

    Tests keep the prioritized order (index == search depth), agents keep
    the instance order (index == column). Every field is a list of plain
    ints; ``compat`` lists each test's compatible agent columns in
    ascending order, and pair staleness is computed on demand by
    pair_staleness_units. The search reads the duration, priority and
    obligatory lists as they are; every other list it reads, including the
    id ranks of its tie-break, is built by cisched.kernels.search_args.
    """

    def __init__(self, instance: SchedulingInstance) -> None:
        self.instance = instance
        tests = [p.test for p in instance.prioritized]
        agents = instance.agents
        self.n = len(tests)
        self.m = len(agents)
        self.test_ids = [t.id for t in tests]
        self.agent_ids = [a.id for a in agents]

        self.dur_us = [quantize_seconds(t.avg_duration) for t in tests]
        self.prio_u = [quantize_priority(p.priority) for p in instance.prioritized]
        self.oblig = [1 if t.obligatory else 0 for t in tests]
        self.budget_us = [quantize_seconds(a.budget) for a in agents]

        agent_col = {a.id: j for j, a in enumerate(agents)}
        self.compat = [
            sorted(agent_col[a_id] for a_id in t.compatible_agents if a_id in agent_col)
            for t in tests
        ]

    def objective_units(self, assign: Sequence[int]) -> tuple[int, int, int]:
        """Exact objective sums for an assignment (test index -> column or -1)."""
        placed = [i for i, j in enumerate(assign) if j >= 0]
        instance = self.instance
        last, t_ids, a_ids = instance.pair_last, self.test_ids, self.agent_ids
        stale = pair_staleness_units(
            [last.get(t_ids[i], {}).get(a_ids[assign[i]]) for i in placed],
            instance.current_cycle, instance.staleness_cap, instance.diversity,
        )
        prio, dur = self.prio_u, self.dur_us
        return sum([prio[i] for i in placed]), sum(stale), sum([dur[i] for i in placed])

    def assignment_to_schedule(self, assign: Sequence[int]) -> Schedule:
        assignments: dict[str, list[str]] = {a_id: [] for a_id in self.agent_ids}
        for i in range(self.n):
            j = assign[i]
            if j >= 0:
                assignments[self.agent_ids[j]].append(self.test_ids[i])
        units = self.objective_units(assign)
        return Schedule(
            assignments={a_id: tuple(tests) for a_id, tests in assignments.items()},
            objective=ObjectiveVector.from_units(*units, self.instance.staleness_cap),
        )


def check_schedule(schedule: Schedule, instance: SchedulingInstance) -> None:
    """Raise if a schedule violates budget, compatibility, or uniqueness invariants."""
    tests_by_id = {p.test.id: p.test for p in instance.prioritized}
    budgets = {a.id: quantize_seconds(a.budget) for a in instance.agents}
    seen: set[str] = set()
    for agent_id, test_ids in schedule.assignments.items():
        if agent_id not in budgets:
            raise ValueError(f"schedule references unknown agent {agent_id!r}")
        used = 0
        for t_id in test_ids:
            if t_id in seen:
                raise ValueError(f"test {t_id!r} assigned more than once")
            seen.add(t_id)
            test = tests_by_id.get(t_id)
            if test is None:
                raise ValueError(f"schedule references unknown test {t_id!r}")
            if agent_id not in test.compatible_agents:
                raise ValueError(f"test {t_id!r} is not compatible with agent {agent_id!r}")
            used += quantize_seconds(test.avg_duration)
        if used > budgets[agent_id]:
            raise ValueError(f"agent {agent_id!r} over budget: {used} > {budgets[agent_id]}")


def schedule_greedy(instance: SchedulingInstance) -> Schedule:
    """First-fill baseline: per agent, assign the highest-priority tests that still fit.

    Agents are visited in instance order; obligatory tests get no special
    treatment. This is one of the optimizing solver's seeds and its
    lexicographic lower bound.
    """
    packed = PackedInstance(instance)
    assign = greedy_assignment(packed)
    schedule = packed.assignment_to_schedule(assign)
    check_schedule(schedule, instance)
    return schedule


def pack_obligatory(packed: PackedInstance) -> list[int] | None:
    """Find any placement of all obligatory tests, or None if impossible.

    Exact depth-first search, most-constrained test first, roomiest agent
    first, pruning on pooled remaining capacity. Obligatory tests are few,
    so the exact search is affordable. It keeps its own stack, so the
    number of obligatory tests is not bounded by the recursion limit.
    """
    dur = packed.dur_us
    residual = list(packed.budget_us)
    assign = [-1] * packed.n
    order = sorted(
        (i for i in range(packed.n) if packed.oblig[i]),
        key=lambda i: (len(packed.compat[i]), -dur[i], i),
    )
    suffix = [0] * (len(order) + 1)
    for k in range(len(order) - 1, -1, -1):
        suffix[k] = suffix[k + 1] + dur[order[k]]

    # untried[k]: the columns order[k] has yet to try, roomiest (then lowest) last.
    untried: list[list[int]] = []
    k = 0
    while k < len(order):
        i = order[k]
        if k == len(untried):
            short = suffix[k] > sum(residual)
            cols = [] if short else [j for j in packed.compat[i] if dur[i] <= residual[j]]
            untried.append(sorted(cols, key=lambda j: (residual[j], -j)))
        else:
            # Back from a subtree without a placement: undo this choice.
            residual[assign[i]] += dur[i]
            assign[i] = -1
        if untried[k]:
            assign[i] = untried[k].pop()
            residual[assign[i]] -= dur[i]
            k += 1
        elif k == 0:
            return None
        else:
            untried.pop()
            k -= 1
    return assign


def ensure_obligatory_coverage(packed: PackedInstance) -> list[int]:
    """Assignment placing every obligatory test, or InfeasibleError.

    Tests that fit no compatible agent even alone are reported by id; if
    each fits alone but no joint placement exists, all obligatory ids are
    reported, since the conflict has no single culprit.
    """
    oblig_ids = [packed.test_ids[i] for i in range(packed.n) if packed.oblig[i]]
    unplaceable = []
    for i in range(packed.n):
        if not packed.oblig[i]:
            continue
        fits = any(packed.dur_us[i] <= packed.budget_us[j] for j in packed.compat[i])
        if not fits:
            unplaceable.append(packed.test_ids[i])
    if unplaceable:
        raise InfeasibleError(unplaceable)
    packing = pack_obligatory(packed)
    if packing is None:
        raise InfeasibleError(oblig_ids)
    return packing


def greedy_assignment(
    packed: PackedInstance,
    initial_assign: Sequence[int] | None = None,
) -> list[int]:
    """Agent-major first-fill on the packed form, optionally completing a partial assignment."""
    assign = [-1] * packed.n if initial_assign is None else list(initial_assign)
    dur = packed.dur_us
    residual = list(packed.budget_us)
    takers: list[list[int]] = [[] for _ in range(packed.m)]
    for i, cols in enumerate(packed.compat):
        if assign[i] >= 0:
            residual[assign[i]] -= dur[i]
        for j in cols:
            takers[j].append(i)
    for j, tests in enumerate(takers):
        for i in tests:
            if assign[i] < 0 and dur[i] <= residual[j]:
                assign[i] = j
                residual[j] -= dur[i]
    return assign


def density_order(prio: Sequence[int], dur: Sequence[int]) -> list[int]:
    """Test indices by descending priority per unit time, exactly.

    Zero-duration tests come first. The rest sort by the integer key
    floor(p * 2**k / t): two distinct densities differ by at least
    1 / (t1 * t2) > 2**-k, so their keys differ too and float rounding can
    never reorder them. Equal densities keep index order.
    """
    k = 2 * max(dur, default=0).bit_length()
    free = [i for i in range(len(dur)) if dur[i] == 0]
    timed = sorted(
        (i for i in range(len(dur)) if dur[i]), key=lambda i: -((prio[i] << k) // dur[i])
    )
    return free + timed


def density_assignment(
    packed: PackedInstance,
    initial_assign: Sequence[int] | None = None,
) -> list[int]:
    """Density-order fill on the packed form, optionally completing a partial assignment.

    Obligatory tests go first, then the rest, each group in density_order
    (the greedy heuristic of the knapsack relaxation; Martello and Toth,
    *Knapsack Problems*, 1990). Each test goes to its roomiest compatible
    agent that still has room, the lowest column on ties.
    """
    assign = [-1] * packed.n if initial_assign is None else list(initial_assign)
    dur = packed.dur_us
    residual = list(packed.budget_us)
    for i, j in enumerate(assign):
        if j >= 0:
            residual[j] -= dur[i]
    order = density_order(packed.prio_u, dur)
    oblig = packed.oblig
    for i in [i for i in order if oblig[i]] + [i for i in order if not oblig[i]]:
        if assign[i] < 0:
            # The first column with the most room of at least dur[i].
            best, most = -1, dur[i] - 1
            for j in packed.compat[i]:
                if residual[j] > most:
                    best, most = j, residual[j]
            if best >= 0:
                assign[i] = best
                residual[best] -= dur[i]
    return assign
