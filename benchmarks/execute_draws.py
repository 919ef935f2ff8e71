"""Time execute_plan's outcome draws against numpy's per-entry generators.

execute_plan draws every entry's outcome and duration jitter from a stream
keyed by (outcome seed, agent, cycle, test), all of a plan's streams in one
array pass. The reference builds numpy's SeedSequence, PCG64 and Generator
for each entry, as execute_plan did before; both give the same records,
which the script checks before it times anything.

Plans of 12, 50 and 125 entries cover a few agents' share of a small, a
medium and a 2000-test repository. Each round times both forms on each
plan, alternating which goes first, over about 2000 entries per form and
size. The table gives the median [min-max] µs per entry over the rounds,
the ratio of the medians and how many rounds the array pass won.

Usage: python3 benchmarks/execute_draws.py [--rounds R] [--seed S]
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from cisched import ExecutionRecord, Outcome, OutcomeModel, PlanEntry, TestPlan, execute_plan
from cisched.execution import _entry_seed, _words

PLAN_SIZES = (12, 50, 125)
ENTRIES_PER_TIMING = 2000


def reference_records(plan: TestPlan, model: OutcomeModel) -> tuple[ExecutionRecord, ...]:
    """The records from numpy's own objects, one generator per entry."""
    head = _words(model.seed) + _words(_entry_seed(plan.agent_id)) + _words(plan.cycle)
    lo, hi = model.duration_jitter
    records = []
    for entry in plan.entries:
        entropy = np.array(head + _words(_entry_seed(entry.test_id)), dtype=np.uint32)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
        failed = rng.random() < model.probability_for(entry.test_id)
        actual = entry.planned_duration * rng.uniform(lo, hi)
        outcome = Outcome.FAIL if failed else Outcome.PASS
        records.append(ExecutionRecord(entry.test_id, plan.agent_id, plan.cycle, outcome, actual))
    return tuple(records)


def us_per_entry(run, plan: TestPlan, model: OutcomeModel) -> float:
    calls = max(1, ENTRIES_PER_TIMING // len(plan.entries))
    start = time.perf_counter()
    for _ in range(calls):
        run(plan, model)
    return (time.perf_counter() - start) * 1e6 / (calls * len(plan.entries))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=21, help="alternating rounds (default 21)")
    parser.add_argument("--seed", type=int, default=3, help="outcome seed (default 3)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    model = OutcomeModel({}, default_probability=0.05, seed=args.seed)
    plans = [
        TestPlan(
            "agent01",
            17,
            tuple(PlanEntry(f"t{k:04d}", planned_duration=1.0 + k % 7, priority=0.5) for k in range(n)),
        )
        for n in PLAN_SIZES
    ]
    for plan in plans:
        if execute_plan(plan, model).records != reference_records(plan, model):
            raise SystemExit(f"execute_plan differs from numpy's generators at {len(plan.entries)} entries")

    times: dict[int, tuple[list[float], list[float]]] = {n: ([], []) for n in PLAN_SIZES}
    for r in range(args.rounds):
        for plan in plans:
            array_pass, reference = times[len(plan.entries)]
            if r % 2:
                reference.append(us_per_entry(reference_records, plan, model))
                array_pass.append(us_per_entry(execute_plan, plan, model))
            else:
                array_pass.append(us_per_entry(execute_plan, plan, model))
                reference.append(us_per_entry(reference_records, plan, model))

    def cell(values: list[float]) -> str:
        return f"{statistics.median(values):.2f} [{min(values):.2f}-{max(values):.2f}]"

    print(f"µs per entry, median [min-max] of {args.rounds} alternating rounds")
    print(f"{'entries':>7}  {'array pass':>20}  {'numpy generators':>20}  {'ratio':>5}  won")
    for n, (array_pass, reference) in times.items():
        ratio = statistics.median(array_pass) / statistics.median(reference)
        won = sum(a < b for a, b in zip(array_pass, reference))
        print(f"{n:>7}  {cell(array_pass):>20}  {cell(reference):>20}  {ratio:>5.2f}  {won}/{args.rounds}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
