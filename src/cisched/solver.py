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
    density_assignment,
    ensure_obligatory_coverage,
    greedy_assignment,
)

# Calibrated node throughput (benchmarks/sizes.py prints a suggested value):
# the node budget is time_budget_ms times this, and each kernel call takes
# this many nodes, few enough to keep the wall-clock check responsive.
NODES_PER_MS = 70
# The wall-clock deadline is a safety net against a badly calibrated node
# budget, generous so ordinary runs are bounded by the node budget alone
# and stay deterministic.
WALL_SAFETY_FACTOR = 10


@dataclass(frozen=True)
class SolveStats:
    """How a solve went: effort spent, whether and why the search stopped, its seed.

    ``seed`` names the search's starting point: ``greedy`` (first-fill),
    ``reseed`` (first-fill completing the obligatory placement) or
    ``density`` (the density-order fill). ``stop`` names what ended the
    search: ``exhausted`` (it finished, so ``completed``), ``node_budget``
    (reproducible) or ``wall_deadline`` (not reproducible).
    """

    nodes: int
    completed: bool
    wall_ms: float
    node_budget: int
    seed: str
    stop: str


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
    # The better seed on the full objective; max keeps greedy's on a tie,
    # so the seed is never below greedy.
    seed, incumbent = max(seed_candidates(packed), key=lambda c: packed.objective_units(c[1]))

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
    stop = "exhausted" if done else "node_budget" if used == node_budget else "wall_deadline"
    return schedule, SolveStats(used, bool(done), wall_ms, node_budget, seed, stop)


def seed_candidates(packed: PackedInstance) -> list[tuple[str, list[int]]]:
    """The search's candidate seeds as (source, assignment), greedy's first.

    Greedy first-fill and the density-order fill each place every
    obligatory test: a fill that drops one restarts from an exact placement
    of just those, which makes greedy's source ``reseed``.
    """
    obligatory = [i for i in range(packed.n) if packed.oblig[i]]

    def drops(assign: list[int]) -> bool:
        return any(assign[i] < 0 for i in obligatory)

    greedy, density = greedy_assignment(packed), density_assignment(packed)
    source = "greedy"
    if drops(greedy) or drops(density):
        base = ensure_obligatory_coverage(packed)
        if drops(greedy):
            greedy, source = greedy_assignment(packed, initial_assign=base), "reseed"
        if drops(density):
            density = density_assignment(packed, initial_assign=base)
    return [(source, greedy), ("density", density)]
