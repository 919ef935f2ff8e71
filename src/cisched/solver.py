"""Anytime branch-and-bound solver for the cycle scheduling problem."""

from __future__ import annotations

import time
from dataclasses import dataclass

from cisched.kernels import get_kernel, search_args
from cisched.scheduling import (
    PackedInstance,
    Schedule,
    SchedulingInstance,
    check_schedule,
    ensure_obligatory_coverage,
    greedy_assignment,
)

# Calibrated node throughput (benchmarks/calibrate.py): the node budget
# is time_budget_ms times this, and each kernel call takes this many nodes,
# few enough to keep the wall-clock check responsive.
NODES_PER_MS = 70
# The wall-clock deadline is a safety net against a badly calibrated node
# budget, generous so ordinary runs are bounded by the node budget alone
# and stay deterministic.
WALL_SAFETY_FACTOR = 10


@dataclass(frozen=True)
class SolveStats:
    """How a solve went: effort spent and whether the search finished."""

    nodes: int
    completed: bool
    wall_ms: float
    node_budget: int


def schedule_optimal(instance: SchedulingInstance) -> Schedule:
    """Best schedule by (total priority, diversity, used time), maximized.

    Obligatory tests are always placed; InfeasibleError names the ones that
    cannot be. Within the configured effort budget the search is exhaustive,
    so ties are broken toward the smallest sorted (test id, agent id) pair
    list; past the budget the best schedule found so far is returned.
    """
    schedule, _ = solve_detailed(instance)
    return schedule


def solve_detailed(
    instance: SchedulingInstance,
    backend: str = "auto",
    node_budget: int | None = None,
) -> tuple[Schedule, SolveStats]:
    """schedule_optimal plus solve statistics and effort control.

    The effort limit is a node budget: either explicit, or the instance's
    time budget times NODES_PER_MS. Node budgets make reruns bit-identical;
    wall time only backstops miscalibration.
    ``backend`` must be auto or python; both run the one Python kernel.
    """
    kernel = get_kernel(backend)
    if node_budget is None:
        node_budget = instance.solver_time_budget_ms * NODES_PER_MS
    if node_budget < 1:
        raise ValueError("node_budget must be >= 1")

    # Wall time and the deadline both count packing, as the greedy
    # scheduler's wall time does.
    start = time.perf_counter()
    packed = PackedInstance(instance)
    incumbent = greedy_assignment(packed)
    if any(packed.oblig[i] and incumbent[i] < 0 for i in range(packed.n)):
        # Greedy can starve obligatory tests; reseed from an exact placement
        # of just those, then fill the rest greedily.
        base = ensure_obligatory_coverage(packed)
        incumbent = greedy_assignment(packed, initial_assign=base)

    # The kernel improves its own copy of the seed in place.
    args = search_args(packed, incumbent)
    deadline = start + instance.solver_time_budget_ms * WALL_SAFETY_FACTOR / 1000.0

    used = 0
    done = 0
    while used < node_budget:
        step = min(NODES_PER_MS, node_budget - used)
        done, nodes = kernel(*args, step)
        used += nodes
        if done:
            break
        if time.perf_counter() > deadline:
            break

    assign = args.inc_assign
    schedule = packed.assignment_to_schedule(assign)
    check_schedule(schedule, instance)
    if any(packed.oblig[i] and assign[i] < 0 for i in range(packed.n)):
        raise RuntimeError("internal error: obligatory test left unassigned")
    wall_ms = (time.perf_counter() - start) * 1000.0
    return schedule, SolveStats(used, bool(done), wall_ms, node_budget)
