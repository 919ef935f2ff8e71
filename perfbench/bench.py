"""Workloads, measurement loops and metrics of the pipeline benchmark.

A run prepares one workload from the seed, then repeats a fixed unit of
work until the requested seconds are used: a whole closed-loop campaign of
``Workload.cycles`` cycles on the campaign workloads, or one ``cisched
schedule`` plus one ``cisched report`` call on ``schedule-replay``. Every
unit of a run is the same work on the same inputs, so its timings are
comparable, and its deterministic outputs must repeat exactly unless the
solver's wall deadline stopped a search.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import cisched.cli
from cisched.domain import save_repository
from cisched.kernels import resolve_backend, warmup
from cisched.priority import PriorityWeights
from cisched.simulator import SchedulerKind, SimulationConfig, run_simulation
from cisched.workload import WorkloadSpec, generate_workload

from perfbench import quality
from perfbench.probes import CycleCapture, CycleRecord, Patches, Tracer

SEARCH_BUDGET_MS = 100
BACKEND = "python"
SETUP_REPEATS = 3
# The tail is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10
# Timings are scaled to a host on which reference_loop takes this long.
REFERENCE_NOMINAL_MS = 1.0
REFERENCE_SAMPLES = 40
# Text written as the config file of the CLI calls; pins the backend so a
# machine with numba runs the same search as one without.
CLI_CONFIG = f"solver:\n  backend: {BACKEND}\n  time_budget_ms: {SEARCH_BUDGET_MS}\n"


@dataclass(frozen=True)
class Workload:
    """One benchmark input family; the seed picks the member.

    ``cycles`` is the length of one campaign unit, or for a replay the
    length of the persisted campaign the CLI calls read.
    """

    name: str
    tests: int
    agents: int
    budget_s: float
    scheduler: SchedulerKind
    cycles: int
    replay: bool = False

    def spec(self, seed: int) -> WorkloadSpec:
        return WorkloadSpec(
            test_count=self.tests,
            agent_count=self.agents,
            duration_min=1.0,
            duration_max=10.0,
            compatibility_density=0.8,
            obligatory_fraction=0.1,
            defect_min=0.01,
            defect_max=0.2,
            budget=self.budget_s,
            seed=seed,
        )

    def smoke(self) -> Workload:
        """The same code path at toy size: two cycles on twelve tests."""
        return replace(self, tests=12, agents=2, budget_s=20.0, cycles=2)


WORKLOADS = {
    w.name: w
    for w in (
        # Cost outside the search: execution, persistence, packing, history depth.
        Workload("greedy-campaign", 200, 4, 300.0, SchedulerKind.GREEDY, 200),
        # Capacity about half of demand; the node budget stops every search.
        Workload("anytime-tight", 500, 8, 180.0, SchedulerKind.OPTIMAL, 20),
        # Budget 60 s x n / (10 m); the wall deadline stops the search today.
        Workload("anytime-large", 2000, 16, 720.0, SchedulerKind.OPTIMAL, 3),
        # The read side: CLI schedule and report over a persisted greedy campaign.
        Workload("schedule-replay", 200, 4, 300.0, SchedulerKind.OPTIMAL, 300, replay=True),
    )
}

# (name, unit, better, bound): the end-to-end metrics of an untraced run.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("cycles_per_s", "cycles/s", "higher", 0.25),
    ("schedule_ms_p50", "ms", "lower", 0.25),
    ("schedule_ms_tail", "ms", "lower", 0.25),
    ("priority_of_bound_pct", "%", "higher", 0.05),
    ("utilization_mean", "fraction", "higher", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better): the per-layer metrics of a traced run. Times are
# self times per unit of work (cycle, or replay iteration).
PER_LAYER = [
    ("domain.filter_ms", "ms", "lower"),
    ("domain.append_history_ms", "ms", "lower"),
    ("domain.history_records", "count", "higher"),
    ("domain.load_history_ms", "ms", "lower"),
    ("domain.load_repository_ms", "ms", "lower"),
    ("domain.validate_ms", "ms", "lower"),
    ("priority.prioritize_ms", "ms", "lower"),
    ("scheduling.build_instance_ms", "ms", "lower"),
    ("scheduling.pack_ms", "ms", "lower"),
    ("scheduling.greedy_ms", "ms", "lower"),
    ("scheduling.check_ms", "ms", "lower"),
    ("scheduling.greedy_oblig_drops", "count", "lower"),
    ("solver.solve_ms", "ms", "lower"),
    ("solver.wall_over_budget", "ratio", "lower"),
    ("solver.nodes", "count", "higher"),
    ("solver.reseed_share", "fraction", "lower"),
    ("solver.seed_gain_pct", "%", "higher"),
    ("solver.deadline_stop_share", "fraction", "lower"),
    ("kernels.search_ms", "ms", "lower"),
    ("kernels.calls", "count", "lower"),
    ("kernels.nodes_per_ms", "1/ms", "higher"),
    ("execution.emit_ms", "ms", "lower"),
    ("execution.execute_ms", "ms", "lower"),
    ("execution.entries", "count", "higher"),
    ("execution.collect_ms", "ms", "lower"),
    ("execution.save_ms", "ms", "lower"),
    ("execution.load_plan_ms", "ms", "lower"),
    ("reporting.load_report_ms", "ms", "lower"),
    ("reporting.export_ms", "ms", "lower"),
    ("reporting.make_report_ms", "ms", "lower"),
    ("reporting.save_report_ms", "ms", "lower"),
    ("config.parse_ms", "ms", "lower"),
    ("workload.generate_ms", "ms", "lower"),
    ("simulator.self_ms", "ms", "lower"),
    ("simulator.artifact_bytes", "bytes", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("trace.self_sum_ms", "ms", "lower"),
    ("trace.untraced_unit_ms", "ms", "lower"),
    ("trace.overhead_cycles_per_s", "cycles/s", "lower"),
    ("trace.digest_mismatches", "count", "lower"),
]


@dataclass
class Prepared:
    """A workload's inputs and files, ready for measurement."""

    workload: Workload
    tests: list
    agents: list
    model: object
    workdir: Path
    generate_ms: float


@dataclass
class Phase:
    """Everything one measurement phase observed."""

    units: int = 0
    cycles: int = 0
    unit_s: float = 0.0
    # One entry per fully timed unit: its position in the run, its seconds
    # and each of its cycles' schedule milliseconds.
    timed: list[tuple[int, float, list[float]]] = field(default_factory=list)
    report_ms: list[float] = field(default_factory=list)
    bound_share_pct: list[float] = field(default_factory=list)
    utilization: list[float] = field(default_factory=list)
    seed_gain_pct: list[float] = field(default_factory=list)
    greedy_drops: list[int] = field(default_factory=list)
    solves: int = 0
    deadline_stops: int = 0
    attempted: int = 0
    failed: int = 0
    artifact_bytes: int = 0
    # One (reproducible, digest) pair per unit; see unit_digest.
    digests: list[tuple[bool, str]] = field(default_factory=list)

    def fail(self, what: str, count: int = 1) -> None:
        print(f"perfbench: failed: {what}", file=sys.stderr)
        self.failed += count

    def mean_cycles_per_s(self) -> float:
        return self.cycles / self.unit_s if self.unit_s else 0.0

    def scaled(self, reference: list[float]) -> tuple[float, list[list[float]]]:
        """Cycles per second and each unit's schedule times, scaled to the nominal reference speed.

        ``reference[i]`` is the reference loop's time measured before unit
        ``i`` of the run (and after the previous one); a unit is scaled by
        the mean of the measurements on either side of it.
        """
        seconds = 0.0
        cycles = 0
        schedule_ms: list[list[float]] = []
        for position, unit_s, unit_ms in self.timed:
            factor = 2.0 * REFERENCE_NOMINAL_MS / (reference[position] + reference[position + 1])
            seconds += unit_s * factor
            cycles += len(unit_ms)
            schedule_ms.append([ms * factor for ms in unit_ms])
        return (cycles / seconds if seconds else 0.0), schedule_ms


def schedule_stats(per_unit: list[list[float]]) -> tuple[float, tuple[float, float, int]]:
    """Median of every schedule time, and the tail of the per-cycle medians.

    Every unit repeats the same cycles, so a cycle's median across units
    drops a one-off stall of the host but keeps a cycle that is slow on
    every repeat; the tail is taken over those medians.
    """
    every = [ms for unit_ms in per_unit for ms in unit_ms]
    if not every:
        return 0.0, (0.0, 0.0, 0)
    per_cycle = [statistics.median(column) for column in zip(*per_unit)]
    return statistics.median(every), tail(per_cycle)


def reference_loop() -> int:
    """Fixed pure-Python work, independent of the program.

    The shared host this benchmark was written on changes the speed it gives
    a process by up to 1.8 times over tens of seconds, on CPU time as much
    as on wall time. This loop slows down with the program, so dividing by
    its time removes most of that drift: over 20-second windows of
    ``cisched schedule`` calls, the quartile spread of the median fell from
    0.21 to 0.05.
    """
    total = 0
    values = list(range(300))
    for k in range(40):
        for v in values:
            if v & 1:
                total += v * k
            else:
                total -= v
    return total


def reference_ms() -> float:
    samples = []
    for _ in range(REFERENCE_SAMPLES):
        start = time.perf_counter()
        reference_loop()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1000.0


def prepare(workload: Workload, seed: int, workdir: Path) -> Prepared:
    """Generate the repository, warm the kernel and write the CLI's input files."""
    start = time.perf_counter()
    tests, agents, model = generate_workload(workload.spec(seed))
    generate_ms = (time.perf_counter() - start) * 1000.0
    warmup(BACKEND)
    workdir.mkdir(parents=True, exist_ok=True)
    if workload.replay:
        save_repository(tests, agents, workdir / "repository.json")
        (workdir / "config.yaml").write_text(CLI_CONFIG, encoding="utf-8")
    return Prepared(workload, tests, agents, model, workdir, generate_ms)


def simulation_config(prep: Prepared, scheduler: SchedulerKind, out_dir: Path) -> SimulationConfig:
    return SimulationConfig(
        cycles=prep.workload.cycles,
        scheduler=scheduler,
        weights=PriorityWeights(),
        outcome_model=prep.model,
        solver_time_budget_ms=SEARCH_BUDGET_MS,
        out_dir=str(out_dir),
        backend=BACKEND,
    )


def build_fixture(prep: Prepared) -> float:
    """Persist the greedy campaign a replay reads; returns its wall seconds."""
    start = time.perf_counter()
    run_simulation(
        simulation_config(prep, SchedulerKind.GREEDY, prep.workdir / "fixture"),
        prep.tests,
        prep.agents,
    )
    return time.perf_counter() - start


def cli_call(main: Callable, argv: list[str]) -> tuple[int, str, float]:
    """One in-process ``cisched`` invocation: exit code, stdout and wall ms."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue(), (time.perf_counter() - start) * 1000.0


def unit_digest(rows: list) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def check_cycles(phase: Phase, records: list[CycleRecord], optimal: bool) -> tuple[list, bool]:
    """Check every captured schedule and collect its quality.

    Returns digest rows and whether the whole unit is reproducible. A row
    holds a cycle's deterministic outputs. Rows stop at the first cycle
    whose search hit the wall deadline, since every later cycle may
    legitimately differ between reruns.
    """
    rows: list = []
    reproducible = True
    for rec in records:
        assignments = rec.schedule.assignments
        if optimal:
            problems, gain = quality.check_optimal(assignments, rec.instance)
            phase.seed_gain_pct.append(gain)
        else:
            problems, dropped = quality.check_assignments(assignments, rec.prioritized, rec.agents)
            phase.greedy_drops.append(dropped)
        if problems:
            phase.fail(f"cycle {rec.cycle}: {'; '.join(problems[:3])}")
        share = 100.0 - quality.priority_gap_pct(assignments, rec.prioritized, rec.agents)
        phase.bound_share_pct.append(share)
        nodes = None
        if rec.stats is not None:
            phase.solves += 1
            nodes = rec.stats.nodes
            if not rec.stats.completed and rec.stats.nodes < rec.stats.node_budget:
                phase.deadline_stops += 1
                reproducible = False
        if reproducible:
            rows.append([rec.cycle, share, nodes, sorted(quality.schedule_pairs(assignments).items())])
    return rows, reproducible


def run_campaign(prep: Prepared, phase: Phase, capture: CycleCapture, tracer: Tracer | None, index: int) -> None:
    """One campaign unit and the checks of everything it produced."""
    w = prep.workload
    out_dir = prep.workdir / f"campaign_{index}"
    simulate = run_simulation if tracer is None else tracer.wrap("simulator.campaign", run_simulation)
    phase.attempted += w.cycles
    try:
        start = time.perf_counter()
        reports = simulate(simulation_config(prep, w.scheduler, out_dir), prep.tests, prep.agents)
        end = time.perf_counter()
        phase.unit_s += end - start
    except Exception:
        traceback.print_exc()
        phase.fail(f"campaign {index} raised", w.cycles)
        capture.take()
        shutil.rmtree(out_dir, ignore_errors=True)
        return
    phase.units += 1
    phase.cycles += len(reports)
    records = capture.take()
    phase.utilization.extend(r.overall_utilization for r in reports)
    if len(records) != w.cycles or len(reports) != w.cycles:
        phase.fail(f"campaign {index}: {len(records)} schedules, {len(reports)} reports", w.cycles)
    else:
        phase.timed.append((index, end - start, [r.filter_to_emit_ms for r in records]))
    rows, reproducible = check_cycles(phase, records, w.scheduler is SchedulerKind.OPTIMAL)
    rows.append([r.overall_utilization for r in reports] if reproducible else None)
    phase.digests.append((reproducible, unit_digest(rows)))
    if tracer is not None:
        phase.artifact_bytes += sum(f.stat().st_size for f in out_dir.rglob("*") if f.is_file())
    shutil.rmtree(out_dir)


def run_replay(prep: Prepared, phase: Phase, capture: CycleCapture, tracer: Tracer | None, index: int) -> None:
    """One ``cisched schedule`` and one ``cisched report`` over the persisted campaign."""
    main = cisched.cli.main if tracer is None else tracer.wrap("cli.main", cisched.cli.main)
    fixture = prep.workdir / "fixture"
    schedule_argv = [
        "schedule",
        "--repo", str(prep.workdir / "repository.json"),
        "--history", str(fixture / "history.jsonl"),
        "--out", str(prep.workdir / "plans"),
        "--config", str(prep.workdir / "config.yaml"),
        "--scheduler", "optimal",
    ]
    report_argv = ["report", "--in", str(fixture), "--out", str(prep.workdir / "report"), "--format", "csv"]
    phase.attempted += 2
    try:
        code, stdout, schedule_ms = cli_call(main, schedule_argv)
        report_code, report_out, report_ms = cli_call(main, report_argv)
    except Exception:
        traceback.print_exc()
        phase.fail(f"replay {index} raised", 2)
        capture.take()
        return
    phase.units += 1
    phase.cycles += 1
    phase.unit_s += (schedule_ms + report_ms) / 1000.0
    phase.timed.append((index, (schedule_ms + report_ms) / 1000.0, [schedule_ms]))
    phase.report_ms.append(report_ms)
    records = capture.take()
    if code != 0 or len(records) != 1:
        phase.fail(f"schedule call {index}: exit {code}, {len(records)} schedules")
    else:
        phase.utilization.append(json.loads(stdout)["overall_utilization"])
        rows, reproducible = check_cycles(phase, records, optimal=True)
        phase.digests.append((reproducible, unit_digest(rows)))
    if report_code != 0 or json.loads(report_out)["cycles"] != prep.workload.cycles:
        phase.fail(f"report call {index}: exit {report_code}")


def measure(prep: Prepared, seconds: float, tracer: Tracer | None = None) -> tuple[list[Phase], list[float]]:
    """Repeat the workload's unit until ``seconds`` have passed (at least once).

    With a tracer, units alternate between untraced and traced, so both
    phases see the same conditions on the host, and the run ends after a
    traced unit. Returns the untraced phase, then the traced one if any,
    and the reference loop's time before each unit and after the last.
    """
    w = prep.workload
    phases = [Phase()] if tracer is None else [Phase(), Phase()]
    capture = CycleCapture(keep_instances=w.scheduler is SchedulerKind.OPTIMAL)
    unit = run_replay if w.replay else run_campaign
    with Patches() as patches:
        capture.install(patches, cisched.cli if w.replay else cisched.simulator)
        deadline = time.perf_counter() + seconds
        index = 0
        reference = [reference_ms()]
        while True:
            if index % len(phases):
                with Patches() as tracing:
                    tracer.install(tracing)
                    unit(prep, phases[1], capture, tracer, index)
            else:
                unit(prep, phases[0], capture, None, index)
            reference.append(reference_ms())
            index += 1
            if time.perf_counter() >= deadline and index % len(phases) == 0:
                break
    return phases, reference


def digest_mismatches(*phases: Phase) -> int:
    """Reproducible units whose deterministic outputs differ from the first one's."""
    digests = [d for p in phases for ok, d in p.digests if ok]
    return sum(1 for d in digests if d != digests[0])


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with TAIL_BEYOND samples beyond it.

    With fewer than twenty samples that percentile lies below the median;
    it is reported as it is, with its percentile. With TAIL_BEYOND samples
    or fewer no percentile qualifies, and the maximum is reported.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def end_to_end(phase: Phase, reference: list[float], setup_s: float) -> dict[str, float]:
    cycles_per_s, per_unit = phase.scaled(reference)
    p50, (tail_ms, _, _) = schedule_stats(per_unit)
    return {
        "setup_s": setup_s,
        "cycles_per_s": cycles_per_s,
        "schedule_ms_p50": p50,
        "schedule_ms_tail": tail_ms,
        "priority_of_bound_pct": statistics.median(phase.bound_share_pct) if phase.bound_share_pct else 0.0,
        "utilization_mean": mean(phase.utilization),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(traced: Phase, untraced: Phase, tracer: Tracer, generate_ms: float) -> dict[str, float]:
    units = traced.cycles or 1
    stats = tracer.stats

    def self_ms(span: str) -> float:
        return stats[span].self_s * 1000.0 / units if span in stats else 0.0

    def count(span: str) -> int:
        return stats[span].count if span in stats else 0

    def calls(span: str) -> int:
        return stats[span].calls if span in stats else 0

    solves = calls("solver.solve")
    kernel_ms = stats["kernels.search"].total_s * 1000.0 if "kernels.search" in stats else 0.0
    # Means, like the self times they are compared with.
    untraced_cps = untraced.mean_cycles_per_s()
    traced_cps = traced.mean_cycles_per_s()
    metrics = {name: self_ms(name[: -len("_ms")]) for name, _, _ in PER_LAYER if name.endswith("_ms")}
    metrics.update(
        {
            "domain.history_records": count("domain.append_history") / units,
            "scheduling.greedy_oblig_drops": mean(traced.greedy_drops),
            "solver.wall_over_budget": (
                stats["solver.solve"].total_s * 1000.0 / solves / SEARCH_BUDGET_MS if solves else 0.0
            ),
            "solver.nodes": count("kernels.search") / solves if solves else 0.0,
            "solver.reseed_share": count("solver.reseed") / solves if solves else 0.0,
            "solver.seed_gain_pct": mean(traced.seed_gain_pct),
            "solver.deadline_stop_share": traced.deadline_stops / traced.solves if traced.solves else 0.0,
            "kernels.calls": calls("kernels.search") / units,
            "kernels.nodes_per_ms": count("kernels.search") / kernel_ms if kernel_ms else 0.0,
            "execution.entries": count("execution.execute") / units,
            "simulator.self_ms": self_ms("simulator.campaign"),
            "simulator.artifact_bytes": traced.artifact_bytes / units,
            "cli.self_ms": self_ms("cli.main"),
            "workload.generate_ms": generate_ms,
            "trace.self_sum_ms": sum(s.self_s for s in stats.values()) * 1000.0 / units,
            "trace.untraced_unit_ms": 1000.0 / untraced_cps if untraced_cps else 0.0,
            "trace.overhead_cycles_per_s": untraced_cps - traced_cps,
            "trace.digest_mismatches": digest_mismatches(untraced, traced),
        }
    )
    return {name: metrics[name] for name, _, _ in PER_LAYER}


def also_reported(phase: Phase, reference: list[float], setup_raw_s: float) -> dict[str, dict]:
    """Quantities reported beside the end-to-end metrics, with their units.

    Most can be exactly zero on some workloads, which rules them out as
    bounded metrics; they are printed so each run still shows them. The
    timings here are as measured, not scaled.
    """
    _, (_, percentile, beyond) = schedule_stats(phase.scaled(reference)[1])
    raw_ms = [ms for _, _, unit_ms in phase.timed for ms in unit_ms]
    shares = phase.bound_share_pct
    return {
        "failed_share": {"value": phase.failed / phase.attempted if phase.attempted else 0.0, "unit": "fraction"},
        "deadline_stop_share": {
            "value": phase.deadline_stops / phase.solves if phase.solves else 0.0,
            "unit": "fraction",
        },
        "priority_gap_pct": {"value": 100.0 - statistics.median(shares) if shares else 0.0, "unit": "%"},
        "schedule_ms_tail_percentile": {"value": percentile, "unit": "%"},
        "schedule_ms_tail_beyond": {"value": beyond, "unit": "count"},
        "schedule_ms_samples": {"value": len(raw_ms), "unit": "count"},
        "reference_ms_p50": {"value": statistics.median(reference), "unit": "ms"},
        "setup_s_measured": {"value": setup_raw_s, "unit": "s"},
        "cycles_per_s_measured": {"value": phase.mean_cycles_per_s(), "unit": "cycles/s"},
        "schedule_ms_p50_measured": {"value": statistics.median(raw_ms) if raw_ms else 0.0, "unit": "ms"},
        "report_ms_p50": {
            "value": statistics.median(phase.report_ms) if phase.report_ms else 0.0,
            "unit": "ms",
        },
        "greedy_oblig_drops_mean": {"value": mean(phase.greedy_drops), "unit": "count"},
        "seed_gain_pct_mean": {"value": mean(phase.seed_gain_pct), "unit": "%"},
    }


def run_metadata(root: Path, seed: int) -> dict:
    """Where and on what a result was measured."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "cisched").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
        )
        commit = done.stdout.strip() or None
    return {
        "workload_seed": seed,
        "python": platform.python_version(),
        "backend": resolve_backend(BACKEND),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, import_s: float, smoke: bool = False) -> dict:
    """Measure one workload; returns the result line plus a ``meta`` block.

    Traced, units alternate between an untraced and a traced phase, so the
    result carries the tracing overhead and a check that tracing changed
    no output.
    """
    workload = WORKLOADS[name].smoke() if smoke else WORKLOADS[name]
    work_root = root / ".perfbench_work"
    workdir = work_root / f"{name}-{os.getpid()}"
    try:
        # Preparing is cheap and repeated for a steady median; the replay
        # fixture is a whole campaign and is built once.
        setup_reference = reference_ms()
        preps, prepare_s = [], []
        for i in range(SETUP_REPEATS):
            start = time.perf_counter()
            preps.append(prepare(workload, seed, workdir / f"setup_{i}"))
            prepare_s.append(time.perf_counter() - start)
        prep = preps[-1]
        fixture_s = build_fixture(prep) if workload.replay else 0.0
        setup_raw_s = import_s + statistics.median(prepare_s) + fixture_s
        setup_s = setup_raw_s * 2.0 * REFERENCE_NOMINAL_MS / (setup_reference + reference_ms())
        generate_ms = statistics.median(p.generate_ms for p in preps)
        if trace:
            tracer = Tracer()
            phases, reference = measure(prep, seconds, tracer)
            untraced, traced = phases
            metrics = per_layer(traced, untraced, tracer, generate_ms)
            units = dict((n, u) for n, u, _ in PER_LAYER)
        else:
            phases, reference = measure(prep, seconds)
            metrics = end_to_end(phases[0], reference, setup_s)
            units = dict((n, u) for n, u, _, _ in END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    mismatches = digest_mismatches(*phases)
    if mismatches:
        print(f"perfbench: {mismatches} units did not reproduce the first unit's outputs", file=sys.stderr)
    return {
        "meta": {
            "workload": name,
            "smoke": smoke,
            "traced": trace,
            "run": run_metadata(root, seed),
            "units": [p.units for p in phases],
            "digests": sorted({d for p in phases for ok, d in p.digests if ok}),
            "also_reported": also_reported(phases[0], reference, setup_raw_s),
        },
        "correct": failed == 0 and mismatches == 0 and all(p.units for p in phases),
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
