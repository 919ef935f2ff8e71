"""Exhaustive reference scheduler for small instances.

Enumerates every assignment of tests to agents (or to nothing) and keeps
the lexicographic best, so it shares no search logic with the
branch-and-bound solver and can vouch for it in tests.
"""

from __future__ import annotations

from cisched.scheduling import (
    PackedInstance,
    Schedule,
    SchedulingInstance,
    check_schedule,
    ensure_obligatory_coverage,
    pair_staleness_units,
)

MAX_TESTS = 12
MAX_AGENTS = 3
_CHUNK_ROWS = 1 << 16


class InstanceTooLargeError(Exception):
    """The instance exceeds what exhaustive enumeration can afford."""

    def __init__(self, tests: int, agents: int) -> None:
        super().__init__(
            f"oracle accepts at most {MAX_TESTS} tests and {MAX_AGENTS} agents, "
            f"got {tests} and {agents}"
        )
        self.tests = tests
        self.agents = agents


def schedule_oracle(instance: SchedulingInstance) -> Schedule:
    """The schedule schedule_optimal must produce, found by brute force.

    Feasible assignments are enumerated in mixed-radix order (digit 0 means
    unassigned, digit j+1 means agent column j) and compared exactly on
    integer objective sums, then on the sorted (test id, agent id) pair
    key. Raises InstanceTooLargeError beyond the enumeration limits and
    InfeasibleError under the same policy as the solver.
    """
    import numpy as np  # imported here, so that importing cisched does not load numpy

    packed = PackedInstance(instance)
    n, m = packed.n, packed.m
    if n > MAX_TESTS or m > MAX_AGENTS:
        raise InstanceTooLargeError(n, m)
    ensure_obligatory_coverage(packed)

    radix = m + 1
    total = radix**n
    dur = np.array(packed.dur_us, dtype=np.int64)
    prio_u = np.array(packed.prio_u, dtype=np.int64)
    pows = radix ** np.arange(n, dtype=np.int64)
    cols = np.arange(n, dtype=np.int64)[None, :]

    compat_ext = np.zeros((n, radix), dtype=bool)
    compat_ext[:, 0] = True
    stale_ext = np.zeros((n, radix), dtype=np.int64)
    for i, agent_cols in enumerate(packed.compat):
        row = instance.pair_last.get(packed.test_ids[i], {})
        units = pair_staleness_units(
            [row.get(packed.agent_ids[j]) for j in agent_cols],
            instance.current_cycle, instance.staleness_cap, instance.diversity,
        )
        for j, u in zip(agent_cols, units):
            compat_ext[i, j + 1] = True
            stale_ext[i, j + 1] = u
    oblig_cols = np.flatnonzero(packed.oblig)

    def pair_key(assign: list[int]) -> list[tuple[str, str]]:
        return sorted(
            (packed.test_ids[i], packed.agent_ids[j]) for i, j in enumerate(assign) if j >= 0
        )

    best_assign: list[int] | None = None
    best_vec: tuple[int, int, int] | None = None
    best_key = None

    for start in range(0, total, _CHUNK_ROWS):
        rows = np.arange(start, min(start + _CHUNK_ROWS, total), dtype=np.int64)
        digits = (rows[:, None] // pows[None, :]) % radix
        assigned = digits > 0

        ok = compat_ext[cols, digits].all(axis=1)
        if oblig_cols.size:
            ok &= assigned[:, oblig_cols].all(axis=1)
        for j in range(m):
            load = np.where(digits == j + 1, dur[None, :], 0).sum(axis=1)
            ok &= load <= packed.budget_us[j]

        idx = np.flatnonzero(ok)
        if idx.size == 0:
            continue

        prio = np.where(assigned[idx], prio_u[None, :], 0).sum(axis=1)
        keep = np.flatnonzero(prio == prio.max())
        stale = stale_ext[cols, digits[idx[keep]]].sum(axis=1)
        keep = keep[stale == stale.max()]
        tim = np.where(assigned[idx[keep]], dur[None, :], 0).sum(axis=1)
        keep = keep[tim == tim.max()]

        for r in idx[keep]:
            assign = (digits[r] - 1).tolist()
            vec = packed.objective_units(assign)
            if best_vec is None or vec > best_vec:
                best_assign, best_vec, best_key = assign, vec, pair_key(assign)
            elif vec == best_vec:
                key = pair_key(assign)
                if key < best_key:
                    best_assign, best_key = assign, key

    if best_assign is None:
        raise RuntimeError("internal error: no feasible assignment after coverage check")
    schedule = packed.assignment_to_schedule(best_assign)
    check_schedule(schedule, instance)
    return schedule
