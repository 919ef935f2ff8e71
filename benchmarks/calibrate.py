"""Measure the solver's node throughput and suggest a calibration value.

The solver limits effort by node count, converting a cycle's millisecond
budget through solver.NODES_PER_MS. This script measures real throughput
of the Python kernel on a deep instance, packing and seeding included, and
prints a conservative replacement value (half the slowest observed run).

Usage: python3 benchmarks/calibrate.py [--tests N] [--agents M] [--seed S]
"""

from __future__ import annotations

import argparse

import numpy as np

from cisched import (
    HistoryStore,
    PriorityWeights,
    TestAgent,
    TestCase,
    build_instance,
    prioritize_all,
    solve_detailed,
)
from cisched.solver import NODES_PER_MS


def deep_instance(tests: int, agents: int, seed: int):
    """A dense instance whose search tree cannot be exhausted."""
    rng = np.random.Generator(np.random.PCG64(seed))
    agent_ids = [f"a{j}" for j in range(agents)]
    cases = []
    for i in range(tests):
        mask = rng.random(agents) < 0.7
        if not mask.any():
            mask[int(rng.integers(agents))] = True
        cases.append(
            TestCase(
                id=f"t{i:04d}",
                avg_duration=float(round(rng.uniform(0.5, 6.0), 3)),
                static_priority=float(round(rng.uniform(0.0, 1.0), 3)),
                compatible_agents=frozenset(
                    agent_ids[j] for j in range(agents) if mask[j]
                ),
            )
        )
    pool = [TestAgent(id=a, budget=60.0) for a in agent_ids]
    ranked = prioritize_all(cases, HistoryStore(), PriorityWeights(), 0)
    return build_instance(ranked, pool, {}, 0)


def measure(instance, target_ms: int, repeats: int) -> dict:
    """Run the solver a few times and report the worst observed throughput."""
    node_budget = NODES_PER_MS * target_ms
    runs = []
    for _ in range(repeats):
        _, stats = solve_detailed(instance, node_budget=node_budget)
        runs.append(stats)
    slowest = min(r.nodes / r.wall_ms for r in runs)
    return {
        "node_budget": node_budget,
        "nodes": runs[0].nodes,
        "wall_ms": [round(r.wall_ms, 1) for r in runs],
        "throughput": slowest,
        "completed": runs[0].completed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tests", type=int, default=200)
    parser.add_argument("--agents", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--target-ms",
        type=int,
        default=1500,
        help="approximate wall time per run at current calibration",
    )
    args = parser.parse_args(argv)

    instance = deep_instance(args.tests, args.agents, args.seed)

    print(f"instance: {args.tests} tests, {args.agents} agents, seed {args.seed}")
    r = measure(instance, args.target_ms, args.repeats)
    print(
        f"python: {r['nodes']:>10} nodes in {r['wall_ms']} ms"
        f"  -> {r['throughput']:,.0f} nodes/ms"
        f"  (budget {r['node_budget']:,}, completed={r['completed']})"
    )

    suggested = max(1, int(r["throughput"] / 2))
    print(
        f"\nsuggested solver.NODES_PER_MS (half the slowest observed run): "
        f"{suggested:,}  (current {NODES_PER_MS:,})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
