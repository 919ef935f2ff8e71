"""Measure history loading and one schedule call as a campaign's log grows.

For each campaign length, the script persists a greedy closed-loop campaign
with run_simulation, then times, each as the median [min-max] of the
repeats:

- cold: load_history with no checkpoint beside the log (it writes one);
- warm: load_history with a current checkpoint;
- warm+1: load_history after append_history added one more cycle, the
  steady state of an executor that appends a cycle and schedules the next;
- schedule: one in-process ``cisched schedule`` call on the warm log;
- report: one in-process ``cisched report --format csv`` call on the
  campaign's run directory;
- fresh schedule, fresh report: the same two calls, each in a new
  ``python -m cisched.cli`` process, so interpreter start and imports
  count, as they do for a CI job that runs the command.

It also prints the size of the checkpoint the loads wrote for the campaign.

With two or more lengths it prints each length's schedule and report
times, in process and fresh, over the shortest's, and for each length
warm+1 over warm.

Usage: python3 benchmarks/history_load.py [--cycles 300 1000] [--tests N]
       [--agents M] [--repeats R] [--seed S]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import cisched
from cisched import (
    ExecutionRecord,
    Outcome,
    PriorityWeights,
    SimulationConfig,
    append_history,
    generate_workload,
    load_history,
    run_simulation,
    save_repository,
)
from cisched.cli import main as cli_main
from cisched.simulator import SchedulerKind
from cisched.workload import WorkloadSpec

SEARCH_BUDGET_MS = 100


def timed_ms(call) -> float:
    start = time.perf_counter()
    call()
    return (time.perf_counter() - start) * 1000.0


def cli_ms(argv: list[str]) -> float:
    """Wall ms of one in-process ``cisched`` call; a failed call raises."""

    def call() -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            if cli_main(argv) != 0:
                raise RuntimeError(f"cisched {' '.join(argv)} failed")

    return timed_ms(call)


def fresh_ms(argv: list[str]) -> float:
    """Wall ms of one ``cisched`` call in a new process; a failed call raises.

    The child imports the same cisched source as this script.
    """
    src = str(Path(cisched.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def call() -> None:
        subprocess.run(
            [sys.executable, "-m", "cisched.cli", *argv],
            check=True, stdout=subprocess.DEVNULL, env=env,
        )

    return timed_ms(call)


def summary(samples: list[float]) -> str:
    return f"{statistics.median(samples):.1f} [{min(samples):.1f}-{max(samples):.1f}]"


def measure(cycles: int, args: argparse.Namespace, root: Path) -> dict:
    """Build one campaign of ``cycles`` cycles and time its loads, a schedule and a report call."""
    budget = 60.0 * max(1, args.tests // (10 * args.agents))
    spec = WorkloadSpec(args.tests, args.agents, 1.0, 10.0, 0.8, 0.1, 0.01, 0.2, budget, args.seed)
    tests, agents, model = generate_workload(spec)
    run_dir = root / f"campaign_{cycles}"
    build_s = timed_ms(
        lambda: run_simulation(
            SimulationConfig(
                cycles=cycles,
                scheduler=SchedulerKind.GREEDY,
                weights=PriorityWeights(),
                outcome_model=model,
                solver_time_budget_ms=SEARCH_BUDGET_MS,
                out_dir=str(run_dir),
            ),
            tests,
            agents,
        )
    ) / 1000.0
    log = run_dir / "history.jsonl"
    checkpoint = log.with_name(log.name + ".checkpoint")
    size_mb = log.stat().st_size / 1e6
    lines = log.read_bytes().count(b"\n")

    def cold() -> None:
        checkpoint.unlink(missing_ok=True)
        load_history(log)

    cold_ms = [timed_ms(cold) for _ in range(args.repeats)]
    warm_ms = [timed_ms(lambda: load_history(log)) for _ in range(args.repeats)]
    checkpoint_bytes = checkpoint.stat().st_size
    # Each repeat appends a cycle in which every test runs on its first agent.
    plus_one_ms = []
    for cycle in range(cycles, cycles + args.repeats):
        block = [
            ExecutionRecord(t.id, min(t.compatible_agents), cycle, Outcome.PASS, t.avg_duration)
            for t in tests
        ]
        append_history(log, block, cycle)
        plus_one_ms.append(timed_ms(lambda: load_history(log)))

    repo = root / f"repository_{cycles}.json"
    config = root / "config.yaml"
    save_repository(tests, agents, repo)
    config.write_text(f"solver:\n  time_budget_ms: {SEARCH_BUDGET_MS}\n", encoding="utf-8")
    schedule_argv = [
        "schedule",
        "--repo", str(repo),
        "--history", str(log),
        "--out", str(root / f"plans_{cycles}"),
        "--config", str(config),
        "--scheduler", "optimal",
    ]
    report_argv = ["report", "--in", str(run_dir), "--out", str(root / f"report_{cycles}"), "--format", "csv"]
    schedule_ms = [cli_ms(schedule_argv) for _ in range(args.repeats)]
    report_ms = [cli_ms(report_argv) for _ in range(args.repeats)]
    fresh_schedule_ms = [fresh_ms(schedule_argv) for _ in range(args.repeats)]
    fresh_report_ms = [fresh_ms(report_argv) for _ in range(args.repeats)]
    return {
        "cycles": cycles,
        "build_s": build_s,
        "size_mb": size_mb,
        "lines": lines,
        "checkpoint_bytes": checkpoint_bytes,
        "cold": cold_ms,
        "warm": warm_ms,
        "plus_one": plus_one_ms,
        "schedule": schedule_ms,
        "report": report_ms,
        "fresh_schedule": fresh_schedule_ms,
        "fresh_report": fresh_report_ms,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cycles", type=int, nargs="+", default=[300, 1000])
    parser.add_argument("--tests", type=int, default=200)
    parser.add_argument("--agents", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    if min(args.cycles) < 1 or args.repeats < 1:
        parser.error("--cycles and --repeats must be >= 1")

    print(f"greedy campaigns of {args.tests} tests x {args.agents} agents, seed {args.seed}")
    print("times in ms, median [min-max] of", args.repeats, "repeats")
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for cycles in sorted(args.cycles):
            row = measure(cycles, args, Path(tmp))
            rows.append(row)
            print(
                f"{cycles:>6} cycles ({row['size_mb']:.1f} MB, {row['lines']} lines,"
                f" built in {row['build_s']:.1f} s)\n"
                f"    checkpoint {row['checkpoint_bytes']} bytes\n"
                f"    cold     {summary(row['cold'])}\n"
                f"    warm     {summary(row['warm'])}\n"
                f"    warm+1   {summary(row['plus_one'])}\n"
                f"    schedule {summary(row['schedule'])}\n"
                f"    report   {summary(row['report'])}\n"
                f"    fresh schedule {summary(row['fresh_schedule'])}\n"
                f"    fresh report   {summary(row['fresh_report'])}",
                flush=True,
            )
    print("warm+1 / warm:", ", ".join(
        f"{r['cycles']}: {statistics.median(r['plus_one']) / statistics.median(r['warm']):.2f}"
        for r in rows
    ))
    if len(rows) > 1:
        for call in ("schedule", "report", "fresh_schedule", "fresh_report"):
            base = statistics.median(rows[0][call])
            name = call.replace("_", " ")
            print(f"{name} / {name} at {rows[0]['cycles']} cycles:", ", ".join(
                f"{r['cycles']}: {statistics.median(r[call]) / base:.2f}" for r in rows[1:]
            ))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
