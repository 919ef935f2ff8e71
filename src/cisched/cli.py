"""Command-line entry point: validate, prioritize, schedule, simulate, report."""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from cisched import codec
from cisched.config import (
    MissingFileError,
    TypeMismatchError,
    UnknownKeyError,
    parse_config,
)
from cisched.domain import (
    DuplicateRecordError,
    HistoryStore,
    filter_eligible,
    load_history,
    load_repository,
    save_repository,
    validate_repository,
)
from cisched.execution import (
    OutcomeModel,
    cycle_dirs,
    emit_test_plans,
    load_plan,
    plan_path,
    plan_paths,
    report_path,
    save_plan,
)
from cisched.priority import prioritize_all
from cisched.reporting import (
    CycleReport,
    EmptyCampaignError,
    campaign_summary,
    export_plot_data,
    load_report,
    timeline_csv,
    utilization,
)
from cisched.scheduling import InfeasibleError, build_instance, schedule_greedy
from cisched.simulator import CycleError, SchedulerKind, SimulationConfig, run_simulation
from cisched.solver import solve_detailed
from cisched.workload import WorkloadSpec, generate_workload, load_workload


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except _InvalidRepositoryError as exc:
        message, violations = exc.args
        return _fail("validation", message, violations=violations)
    except InfeasibleError as exc:
        return _fail("infeasible", str(exc), test_ids=list(exc.test_ids))
    except CycleError as exc:
        extra = {"cycle": exc.cycle}
        if isinstance(exc.__cause__, InfeasibleError):
            extra["test_ids"] = list(exc.__cause__.test_ids)
        return _fail("cycle_failed", str(exc), **extra)
    except UnknownKeyError as exc:
        return _fail("unknown_key", str(exc))
    except TypeMismatchError as exc:
        return _fail("type_mismatch", str(exc))
    except MissingFileError as exc:
        return _fail("missing_file", str(exc))
    except EmptyCampaignError as exc:
        return _fail("empty_campaign", str(exc))
    except DuplicateRecordError as exc:
        return _fail("duplicate_record", str(exc))
    except (ValueError, KeyError) as exc:
        return _fail("invalid_input", str(exc))
    except OSError as exc:
        return _fail("io", str(exc))


def _fail(kind: str, message: str, **extra) -> int:
    payload = {"error": kind, "message": message}
    payload.update(extra)
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return 1


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cisched",
        description="Test-execution scheduling engine and CI-cycle simulator.",
    )
    parser.add_argument("--verbose", action="store_true", help="log pipeline stages")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a repository file against the domain invariants")
    p.add_argument("--repo", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("prioritize", help="print the current cycle's test priorities")
    p.add_argument("--repo", required=True)
    p.add_argument("--history")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_prioritize)

    p = sub.add_parser("schedule", help="build one cycle's schedule and write test plans")
    p.add_argument("--repo", required=True)
    p.add_argument("--history", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--time-budget-ms", type=int, dest="time_budget_ms")
    p.add_argument("--scheduler", choices=[k.value for k in SchedulerKind])
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("simulate", help="run the closed CI loop for N cycles")
    p.add_argument("--config")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--workload", help="workload spec JSON to generate a repository from")
    source.add_argument("--repo", help="repository JSON to simulate on")
    p.add_argument("--history", help="history log to continue from (with --repo)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--cycles", type=int)
    p.add_argument("--time-budget-ms", type=int, dest="time_budget_ms")
    p.add_argument("--scheduler", choices=[k.value for k in SchedulerKind])
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("report", help="summarize a simulation output directory")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("generate-workload", help="generate a synthetic repository")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--workload", help="workload spec JSON (otherwise the config section)")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_generate_workload)

    return parser


def _overrides(args) -> dict:
    """Collect dotted config overrides from flags; --seed overrides every seed."""
    overrides: dict[str, object] = {}
    if getattr(args, "seed", None) is not None:
        overrides["simulation.seed"] = args.seed
        overrides["workload.seed"] = args.seed
    if getattr(args, "time_budget_ms", None) is not None:
        overrides["solver.time_budget_ms"] = args.time_budget_ms
    if getattr(args, "cycles", None) is not None:
        overrides["simulation.cycles"] = args.cycles
    if getattr(args, "scheduler", None) is not None:
        overrides["simulation.scheduler"] = args.scheduler
    return overrides


class _InvalidRepositoryError(Exception):
    """A repository that breaks the domain invariants: its message and violations."""


def _load_valid_repository(path: str):
    tests, agents = load_repository(path)
    result = validate_repository(tests, agents)
    if not result.ok:
        violations = [
            {"kind": v.kind.value, "subject": v.subject, "message": v.message}
            for v in result.violations
        ]
        raise _InvalidRepositoryError(f"invalid repository: {path}", violations)
    return tests, agents


def _cmd_validate(args) -> int:
    tests, agents = _load_valid_repository(args.repo)
    _emit({"status": "ok", "tests": len(tests), "agents": len(agents)})
    return 0


def _cmd_prioritize(args) -> int:
    cfg = parse_config(args.config, _overrides(args))
    tests, agents = _load_valid_repository(args.repo)
    history = load_history(args.history) if args.history else HistoryStore()
    eligible, _ = filter_eligible(tests, agents)
    prioritized = prioritize_all(eligible, history, cfg.priority, history.current_cycle)
    _emit(
        {
            "cycle": history.current_cycle,
            "prioritized": [
                {"test_id": p.test.id, "priority": p.priority} for p in prioritized
            ],
        }
    )
    return 0


def _cmd_schedule(args) -> int:
    cfg = parse_config(args.config, _overrides(args))
    tests, agents = _load_valid_repository(args.repo)
    history = load_history(args.history)
    cycle = history.current_cycle
    eligible, active_agents = filter_eligible(tests, agents)
    prioritized = prioritize_all(eligible, history, cfg.priority, cycle)
    instance = build_instance(
        prioritized,
        active_agents,
        history.pair_last,
        cycle,
        solver_time_budget_ms=cfg.solver.time_budget_ms,
        staleness_cap=cfg.solver.staleness_cap,
        diversity=cfg.solver.diversity,
    )
    if cfg.simulation.scheduler is SchedulerKind.GREEDY:
        schedule = schedule_greedy(instance)
    else:
        schedule, _ = solve_detailed(instance, backend=cfg.solver.backend)
    plans = emit_test_plans(schedule, prioritized, active_agents, cycle)
    # Replace the whole plan set: a stale plan would run its tests again.
    for stale in plan_paths(args.out, cycle):
        stale.unlink()
    for plan in plans:
        save_plan(plan, plan_path(args.out, cycle, plan.agent_id))
    durations = {p.test.id: p.test.avg_duration for p in prioritized}
    _, overall = utilization(schedule, active_agents, durations)
    _emit(
        {
            "cycle": cycle,
            "scheduled": schedule.size,
            "plans": len(plans),
            "overall_utilization": overall,
            "objective": {
                "total_priority": schedule.objective.total_priority,
                "diversity": schedule.objective.diversity,
                "used_time": schedule.objective.used_time,
            },
        }
    )
    return 0


def _workload_spec(args, cfg) -> WorkloadSpec:
    """The --workload file's spec, or the config's, with --seed applied."""
    spec = load_workload(args.workload) if args.workload else cfg.workload
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    return spec


def _cmd_simulate(args) -> int:
    if args.history and not args.repo:
        print("cisched simulate: --history requires --repo", file=sys.stderr)
        return 2
    cfg = parse_config(args.config, _overrides(args))
    sim = cfg.simulation
    defect_probabilities = {}
    if args.repo:
        tests, agents = _load_valid_repository(args.repo)
    else:
        tests, agents, generated = generate_workload(_workload_spec(args, cfg))
        defect_probabilities = generated.defect_probabilities
    # Per-test defect rates come from a generated workload; stream seed and
    # jitter belong to the simulation section.
    model = OutcomeModel(
        defect_probabilities=defect_probabilities,
        default_probability=sim.default_defect_probability,
        duration_jitter=(sim.jitter_low, sim.jitter_high),
        seed=sim.seed,
    )
    sim_config = SimulationConfig(
        cycles=sim.cycles,
        scheduler=sim.scheduler,
        weights=cfg.priority,
        outcome_model=model,
        solver_time_budget_ms=cfg.solver.time_budget_ms,
        out_dir=args.out,
        pair_staleness_cap=cfg.solver.staleness_cap,
        diversity=cfg.solver.diversity,
        backend=cfg.solver.backend,
    )
    reports = run_simulation(sim_config, tests, agents, args.history)
    _emit(codec.encode(campaign_summary(reports)))
    return 0


def _cmd_report(args) -> int:
    in_dir = Path(args.in_dir)
    # Only finished cycles count: a cycle directory whose report an
    # interrupted run never wrote, or a foreign entry beside them, is skipped.
    cycles = [n for n, _ in cycle_dirs(in_dir) if report_path(in_dir, n).is_file()]
    with _timeline_chunks(in_dir, cycles if args.format == "csv" else []) as timeline:
        reports = [_load_cycle_report(in_dir, n) for n in cycles]
        if not reports:
            raise EmptyCampaignError(f"no cycle reports under {in_dir}")
        summary = campaign_summary(reports)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        written = []
        if args.format == "csv":
            written.extend(str(p) for p in export_plot_data(reports, timeline(), out))
        else:
            reports_path = out / "reports.json"
            codec.save_list(reports, reports_path)
            written.append(str(reports_path))
    summary_path = out / "campaign_summary.json"
    codec.save(summary, summary_path)
    written.append(str(summary_path))
    _emit({"written": written, "cycles": summary.cycles})
    return 0


def _load_cycle_report(in_dir: Path, cycle: int) -> CycleReport:
    path = report_path(in_dir, cycle)
    report = load_report(path)
    if report.cycle != cycle:
        raise ValueError(f"{path}: holds the report of cycle {report.cycle}")
    return report


@contextlib.contextmanager
def _timeline_chunks(in_dir: Path, cycles: list[int]):
    """Render the cycles' timeline rows in one worker process per CPU.

    Yields a function that returns the rows as one text per contiguous
    chunk of ``cycles``, in cycle order, and raises the error of the first
    chunk that failed. The workers start at once, so they load and render
    while the caller reads the cycle reports. They are forked: a spawned
    worker would first import the package, about 260 ms on a 2-CPU host,
    and the CLI starts no thread before the pool. With one CPU, or where
    the CPU set is unknown, the chunks run in this process when the
    function is called. The pool is joined on exit, also on error.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = 1
    n = len(cycles)
    workers = min(cpus, n)
    chunks = [cycles[i * n // workers:(i + 1) * n // workers] for i in range(workers)]
    if workers <= 1:
        yield lambda: [_timeline_rows(in_dir, chunk) for chunk in chunks]
        return
    # Imported here: importing them costs about 20 ms, which every other
    # command would pay.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        futures = [pool.submit(_timeline_rows, in_dir, chunk) for chunk in chunks]
        yield lambda: [f.result() for f in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def _timeline_rows(in_dir: Path, cycles: list[int]) -> str:
    """The timeline CSV rows of the cycles' plans, by cycle, then agent id.

    A plan whose cycle or agent id disagrees with where it is filed is
    refused, so the rows never mix up cycles. benchmarks/history_load.py's
    ``report_split`` times this loop stage by stage; keep the two in step.
    """
    rows = []
    for cycle in cycles:
        plans = []
        for path in plan_paths(in_dir, cycle):
            plan = load_plan(path)
            # plan_paths globs the cycle's own directory, so the name alone
            # says whether the plan is filed under its agent.
            if plan.cycle != cycle or path.name != f"plan_{plan.agent_id}.json":
                raise ValueError(
                    f"{path}: holds the plan of agent {plan.agent_id!r} for cycle {plan.cycle}"
                )
            plans.append(plan)
        rows.append(timeline_csv(sorted(plans, key=lambda p: p.agent_id)))
    return "".join(rows)


def _cmd_generate_workload(args) -> int:
    cfg = parse_config(args.config, _overrides(args))
    tests, agents, model = generate_workload(_workload_spec(args, cfg))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_repository(tests, agents, out / "repository.json")
    codec.save(model, out / "outcome_model.json")
    _emit({"tests": len(tests), "agents": len(agents), "out": str(out)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
