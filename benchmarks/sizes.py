"""Time each solver stage at fixed instance sizes, as medians over repeated runs.

For each size the script prints, as the median and the min-max range over
``--runs`` runs:

- the time of each stage before the search: the whole greedy scheduler
  (``schedule_greedy``), packing (``PackedInstance``), the two seeds
  (``seed_candidates``) and the kernel's inputs (``search_args``);
- the wall time of ``solve_detailed``, the nodes it used against its node
  budget, and its wall time divided by the configured time budget;
- the kernel's throughput: ``_search_chunk`` alone, from the solver's seed,
  in calls of ``NODES_PER_MS`` nodes. Its node count includes the children
  that the kernel counts without entering them.

After the table it prints a suggested ``solver.NODES_PER_MS``: half the
slowest solve throughput (``nodes / wall_ms`` of ``solve_detailed``,
packing and seeding included) over every run of every row whose search
used its whole node budget, so that a search that ends early cannot skew
it.

The instances are those of ``optimality_gap.py``, at ``--seed``: the table
sizes, and for each ``--tight`` size cycle 1 of its campaign shaped like
perfbench's ``anytime-tight`` (about half of demand), after one optimal
cycle ran, so that the obligatory check prunes the deep nodes.

Usage: python3 benchmarks/sizes.py [--sizes 50x3 200x4 ...] [--tight 500x8]
       [--runs N] [--seed S] [--budget-ms B]
"""

from __future__ import annotations

import argparse
import statistics
import time
from itertools import islice

from cisched import schedule_greedy
from cisched.kernels import _search_chunk, search_args
from cisched.scheduling import PackedInstance
from cisched.solver import NODES_PER_MS, seed_candidates, solve_detailed
from optimality_gap import campaign_instances, size, table_instance

COLUMNS = ("greedy", "pack", "seeds", "search_args", "solve wall", "nodes / budget", "wall ÷ budget", "kernel nodes/ms")


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, (time.perf_counter() - start) * 1000.0


def measure(instance) -> dict:
    """One run of every stage, the solve, and the kernel from the solver's seed."""
    _, greedy_ms = timed(schedule_greedy, instance)
    packed, pack_ms = timed(PackedInstance, instance)
    seeds, seeds_ms = timed(seed_candidates, packed)
    _, seed = max(seeds, key=lambda c: packed.objective_units(c[1]))
    args, args_ms = timed(search_args, packed, seed)
    node_budget = instance.solver_time_budget_ms * NODES_PER_MS
    used = done = 0
    start = time.perf_counter()
    while used < node_budget and not done:
        done, nodes = _search_chunk(*args, min(NODES_PER_MS, node_budget - used))
        used += nodes
    kernel_ms = (time.perf_counter() - start) * 1000.0
    _, stats = solve_detailed(instance)
    return {
        "greedy": greedy_ms,
        "pack": pack_ms,
        "seeds": seeds_ms,
        "search_args": args_ms,
        "solve wall": stats.wall_ms,
        "nodes": stats.nodes,
        "node_budget": stats.node_budget,
        "wall ÷ budget": stats.wall_ms / instance.solver_time_budget_ms,
        "kernel nodes/ms": used / kernel_ms,
        "stop": stats.stop,
        "solve nodes/ms": stats.nodes / stats.wall_ms,
    }


def spread(values, digits: int) -> str:
    """Median and min-max range, as ``median (min-max)``."""
    fmt = f"{{:.{digits}f}}"
    return f"{fmt.format(statistics.median(values))} ({fmt.format(min(values))}–{fmt.format(max(values))})"


def row(label: str, results: list[dict]) -> str:
    def column(name: str, digits: int) -> str:
        return spread([r[name] for r in results], digits)

    used = sorted({r["nodes"] for r in results})
    nodes = "/".join(f"{u:,}" for u in used) + f" / {results[0]['node_budget']:,}"
    cells = [column(c, 1) for c in COLUMNS[:5]]
    cells += [nodes, column("wall ÷ budget", 2), column("kernel nodes/ms", 0)]
    return f"| {label} | " + " | ".join(cells) + " |"


def suggestion(results: list[dict]) -> str:
    """The suggested NODES_PER_MS, from the runs that used their whole node budget."""
    throughputs = [r["solve nodes/ms"] for r in results if r["stop"] == "node_budget"]
    value = f"{max(1, int(min(throughputs) / 2)):,}" if throughputs else "none, no run used its whole node budget"
    return f"suggested solver.NODES_PER_MS (half the slowest node-budget solve): {value} (current {NODES_PER_MS:,})"


def instances(args):
    """(label, instance) per row: the table sizes, then the tight shapes."""
    for tests, agents in args.sizes:
        yield f"{tests}×{agents}", table_instance(tests, agents, args.seed, args.budget_ms)
    for tests, agents in args.tight:
        ((_, instance),) = islice(campaign_instances(tests, agents, args.seed, 2, args.budget_ms), 1, 2)
        yield f"{tests}×{agents} tight", instance


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", nargs="*", type=size, default=[(50, 3), (200, 4), (500, 8), (2000, 16)])
    parser.add_argument("--tight", nargs="*", type=size, default=[(500, 8)], help="anytime-tight shapes")
    parser.add_argument("--runs", type=int, default=7)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--budget-ms", type=int, default=100, help="solver time budget")
    args = parser.parse_args(argv)

    print(f"milliseconds unless named; median (min–max) of {args.runs} runs, seed {args.seed}")
    print("| tests×agents | " + " | ".join(COLUMNS) + " |")
    print("| --- " * (len(COLUMNS) + 1) + "|")
    every = []
    for label, instance in instances(args):
        results = [measure(instance) for _ in range(args.runs)]
        print(row(label, results), flush=True)
        every += results
    print()
    print(suggestion(every))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
