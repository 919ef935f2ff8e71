"""Measure how far the solver's seeds and schedules are from the priority optimum.

For each instance the script solves the priority MILP with HiGHS
(``scipy.optimize.milp``): one binary per compatible (test, agent) pair,
at most one agent per test, exactly one per obligatory test, and each
agent's total duration within its budget. It prints that optimum and, in
percent of it, how far below it lie the greedy seed, the density-order
seed and the solver's final schedule, and how far above it lies the
search's root bound (Dantzig's fractional bound over the pooled capacity).
A row whose MILP stopped at the time limit says ``limit``; its optimum is
then HiGHS's best schedule, and the ``dual%`` column gives HiGHS's dual
bound above it.

The instances are the table sizes of ROADMAP item 3 (``generate_workload``
at seed 3, budgets of 60 s x max(1, n // (10 m)), no pair history) and the
first cycles of a closed-loop campaign shaped like perfbench's
``anytime-tight`` (500x8 at about half of demand, with pair history).

scipy is not a dependency: without it the script prints one line and
exits 0.

Usage: python3 benchmarks/optimality_gap.py [--sizes 50x3 200x4 ...]
       [--campaign 500x8] [--cycles C] [--time-limit S] [--budget-ms B]
"""

from __future__ import annotations

import argparse
import time

from cisched import (
    HistoryStore,
    PriorityWeights,
    SchedulerKind,
    SimulationConfig,
    SimulationState,
    WorkloadSpec,
    build_instance,
    filter_eligible,
    generate_workload,
    prioritize_all,
    run_cycle,
)
from cisched.scheduling import PRIORITY_UNIT, InfeasibleError, PackedInstance, density_order
from cisched.solver import seed_candidates, solve_detailed

# perfbench's anytime-tight gives each of its 8 agents 180 s for 500 tests:
# 2.88 s per test and agent, about half of the 5.5 s mean demand.
CAMPAIGN_SECONDS_PER_TEST = 2.88


def size(text: str) -> tuple[int, int]:
    tests, agents = text.lower().split("x")
    return int(tests), int(agents)


def spec(tests: int, agents: int, budget: float, seed: int) -> WorkloadSpec:
    return WorkloadSpec(tests, agents, 1.0, 10.0, 0.8, 0.1, 0.01, 0.2, budget, seed)


def table_instance(tests: int, agents: int, seed: int, budget_ms: int):
    cases, pool, _ = generate_workload(spec(tests, agents, 60.0 * max(1, tests // (10 * agents)), seed))
    ranked = prioritize_all(cases, HistoryStore(), PriorityWeights(), 0)
    return build_instance(ranked, pool, {}, 0, solver_time_budget_ms=budget_ms)


def campaign_instances(tests: int, agents: int, seed: int, cycles: int, budget_ms: int):
    """(cycle, instance) for the campaign's first cycles, each built as the simulator builds it."""
    budget = CAMPAIGN_SECONDS_PER_TEST * tests / agents
    cases, pool, model = generate_workload(spec(tests, agents, budget, seed))
    config = SimulationConfig(
        cycles=cycles,
        scheduler=SchedulerKind.OPTIMAL,
        weights=PriorityWeights(),
        outcome_model=model,
        solver_time_budget_ms=budget_ms,
    )
    state = SimulationState(list(cases), list(pool), HistoryStore(), config)
    for cycle in range(cycles):
        eligible, active = filter_eligible(state.tests, state.agents)
        ranked = prioritize_all(eligible, state.history, config.weights, cycle)
        yield cycle, build_instance(
            ranked,
            active,
            state.history.pair_last,
            cycle,
            solver_time_budget_ms=budget_ms,
            staleness_cap=config.pair_staleness_cap,
            diversity=config.diversity,
        )
        run_cycle(state)


def milp_priority(packed: PackedInstance, time_limit: float):
    """HiGHS on the priority MILP: (status, best priority, dual bound, seconds)."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_array

    pairs = [(i, j) for i in range(packed.n) for j in packed.compat[i]]
    k = np.arange(len(pairs))
    tests = np.array([i for i, _ in pairs], dtype=np.int64)
    agents = np.array([j for _, j in pairs], dtype=np.int64)
    prio = np.array(packed.prio_u, dtype=float) / PRIORITY_UNIT
    dur = np.array(packed.dur_us, dtype=float)
    one_agent = coo_array((np.ones(len(pairs)), (tests, k)), shape=(packed.n, len(pairs)))
    budget = coo_array((dur[tests], (agents, k)), shape=(packed.m, len(pairs)))
    constraints = [
        LinearConstraint(one_agent, np.array(packed.oblig, dtype=float), 1.0),
        LinearConstraint(budget, -np.inf, np.array(packed.budget_us, dtype=float)),
    ]
    start = time.perf_counter()
    res = milp(
        -prio[tests],
        integrality=np.ones(len(pairs)),
        bounds=Bounds(0, 1),
        constraints=constraints,
        options={"time_limit": time_limit, "mip_rel_gap": 0.0, "disp": False},
    )
    seconds = time.perf_counter() - start
    status = {0: "optimal", 1: "limit"}.get(res.status, f"status {res.status}")
    if res.x is None:
        return status, None, None, seconds
    return status, -res.fun, -res.mip_dual_bound, seconds


def root_bound(packed: PackedInstance) -> float:
    """Dantzig's fractional bound on priority over the pooled capacity, as the search's root."""
    rem = sum(packed.budget_us)
    bound = 0.0
    for i in density_order(packed.prio_u, packed.dur_us):
        if packed.dur_us[i] > rem:
            bound += packed.prio_u[i] * rem / packed.dur_us[i]
            break
        bound += packed.prio_u[i]
        rem -= packed.dur_us[i]
    return bound / PRIORITY_UNIT


def priority(packed: PackedInstance, assign) -> float:
    return packed.objective_units(assign)[0] / PRIORITY_UNIT


def row(label: str, instance, time_limit: float) -> str:
    packed = PackedInstance(instance)
    head = f"{label:<14} {packed.n:>5}x{packed.m:<3}"
    try:
        (_, greedy), (_, density) = seed_candidates(packed)
        final, stats = solve_detailed(instance)
    except InfeasibleError as err:
        return f"{head} infeasible: {', '.join(err.test_ids)}"
    status, best, dual, seconds = milp_priority(packed, time_limit)
    if best is None:
        return f"{head} {status:<8} no schedule found in {seconds:.1f} s"
    final_prio = final.objective.total_priority

    def pct(delta: float) -> str:
        # Rounding first keeps a float residue from printing as -0.000.
        return f"{round(100.0 * delta / best, 3) + 0.0 if best else 0.0:8.3f}"

    def below(value: float) -> str:
        return pct(best - value)

    def above(value: float) -> str:
        return pct(value - best)

    return (
        f"{head} {status:<8} {best:12.6f} {above(dual)} {below(priority(packed, greedy))}"
        f" {below(priority(packed, density))} {below(final_prio)} {above(root_bound(packed))}"
        f" {stats.seed:>8} {seconds:7.1f}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", nargs="*", type=size, default=[(50, 3), (200, 4), (500, 8), (2000, 16)])
    parser.add_argument("--seed", type=int, default=3, help="workload seed of the table sizes")
    parser.add_argument("--campaign", type=size, default=(500, 8))
    parser.add_argument("--campaign-seed", type=int, default=7)
    parser.add_argument("--cycles", type=int, default=6, help="campaign cycles, 0 for none")
    parser.add_argument("--time-limit", type=float, default=30.0, help="HiGHS seconds per instance")
    parser.add_argument("--budget-ms", type=int, default=100, help="solver time budget")
    args = parser.parse_args(argv)

    try:
        import scipy.optimize  # noqa: F401
    except ImportError:
        print("optimality_gap: scipy is not importable, so there is no MILP optimum to compare with")
        return 0

    print(
        "gaps in percent of the MILP priority optimum: seeds and final schedule below it,"
        " HiGHS's dual bound and the root bound above it"
    )
    print(
        f"{'instance':<14} {'size':>9} {'milp':<8} {'optimum':>12} {'dual%':>8} {'greedy%':>8}"
        f" {'density%':>8} {'final%':>8} {'bound%':>8} {'seed':>8} {'milp_s':>7}"
    )
    for tests, agents in args.sizes:
        instance = table_instance(tests, agents, args.seed, args.budget_ms)
        print(row("table", instance, args.time_limit), flush=True)
    if args.cycles > 0:
        tests, agents = args.campaign
        for cycle, instance in campaign_instances(
            tests, agents, args.campaign_seed, args.cycles, args.budget_ms
        ):
            print(row(f"campaign c{cycle}", instance, args.time_limit), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
