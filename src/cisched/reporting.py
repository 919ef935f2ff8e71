"""Per-cycle and campaign metrics: utilization, priority distribution, plot exports."""

from __future__ import annotations

import csv
import io
import statistics
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from cisched import codec
from cisched.domain import Outcome, TestAgent
from cisched.execution import AgentResult, TestPlan
from cisched.priority import PrioritizedTest
from cisched.scheduling import Schedule, quantize_seconds

HISTOGRAM_BINS = 20
# Campaign thresholds the utilization summary reports against.
UTILIZATION_FLOOR = 0.91
UTILIZATION_TARGET = 0.99


class EmptyCampaignError(Exception):
    """campaign_summary needs at least one report."""


@dataclass(frozen=True)
class CycleReport:
    """Metrics for one completed cycle.

    Every field derives from the schedule and the seeded execution, so
    report files are identical across reruns with the same seeds; measured
    wall times go to the simulator's timings sidecar instead.
    """

    cycle: int
    per_agent_utilization: Mapping[str, float]
    overall_utilization: float
    scheduled_count: int
    executed_count: int
    fail_count: int
    priority_histogram: tuple[int, ...]
    dropped_tests: int
    actual_utilization: float
    budget_overruns: int


@dataclass(frozen=True)
class CampaignSummary:
    """Aggregates over a run's cycle reports."""

    cycles: int
    min_utilization: float
    median_utilization: float
    max_utilization: float
    fraction_at_least_91: float
    fraction_at_least_99: float
    aggregate_priority_histogram: tuple[int, ...]
    total_failures: int


def utilization(
    schedule: Schedule,
    agents: Sequence[TestAgent],
    durations: Mapping[str, float],
) -> tuple[dict[str, float], float]:
    """Planned time filled per agent and overall, as fractions of budget.

    ``durations`` maps test id to planned duration in seconds. Integer
    microsecond sums keep the ratios identical across runs.
    """
    per_agent: dict[str, float] = {}
    used_total = 0
    budget_total = 0
    for agent in agents:
        budget_us = quantize_seconds(agent.budget)
        used_us = sum(
            quantize_seconds(durations[t]) for t in schedule.assignments.get(agent.id, ())
        )
        per_agent[agent.id] = used_us / budget_us if budget_us else 0.0
        used_total += used_us
        budget_total += budget_us
    overall = used_total / budget_total if budget_total else 0.0
    return per_agent, overall


def priority_histogram(
    prioritized: Sequence[PrioritizedTest], bins: int = HISTOGRAM_BINS
) -> tuple[int, ...]:
    """Counts over equal-width bins spanning [0, 1], last bin right-closed."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    values = [p.priority for p in prioritized]
    if any(v < 0.0 or v > 1.0 for v in values):
        raise ValueError("priorities must lie in [0, 1]")
    # Element for element the edges of np.linspace(0.0, 1.0, bins + 1).
    step = 1.0 / bins
    edges = [i * step for i in range(bins)] + [1.0]
    counts = [0] * bins
    for v in values:
        counts[min(bisect_right(edges, v) - 1, bins - 1)] += 1
    return tuple(counts)


def make_cycle_report(
    cycle: int,
    schedule: Schedule,
    prioritized: Sequence[PrioritizedTest],
    agents: Sequence[TestAgent],
    results: Sequence[AgentResult],
) -> CycleReport:
    """Assemble the cycle's metrics from its schedule and execution results."""
    durations = {p.test.id: p.test.avg_duration for p in prioritized}
    per_agent, overall = utilization(schedule, agents, durations)

    actual_by_agent: dict[str, float] = {a.id: 0.0 for a in agents}
    executed = 0
    failed = 0
    for result in results:
        for record in result.records:
            executed += 1
            if record.outcome is Outcome.FAIL:
                failed += 1
            actual_by_agent[record.agent_id] = (
                actual_by_agent.get(record.agent_id, 0.0) + record.actual_duration
            )
    budget_total = sum(a.budget for a in agents)
    actual_total = sum(actual_by_agent.values())
    overruns = sum(1 for a in agents if actual_by_agent.get(a.id, 0.0) > a.budget)

    return CycleReport(
        cycle=cycle,
        per_agent_utilization=per_agent,
        overall_utilization=overall,
        scheduled_count=schedule.size,
        executed_count=executed,
        fail_count=failed,
        priority_histogram=priority_histogram(prioritized),
        dropped_tests=len(prioritized) - schedule.size,
        actual_utilization=actual_total / budget_total if budget_total else 0.0,
        budget_overruns=overruns,
    )


def campaign_summary(reports: Sequence[CycleReport]) -> CampaignSummary:
    """Utilization spread, threshold fractions, aggregate histogram, failures."""
    if not reports:
        raise EmptyCampaignError("campaign_summary requires at least one report")
    overall = [r.overall_utilization for r in reports]
    bins = len(reports[0].priority_histogram)
    aggregate = [0] * bins
    for r in reports:
        if len(r.priority_histogram) != bins:
            raise ValueError("reports disagree on histogram bin count")
        for i, c in enumerate(r.priority_histogram):
            aggregate[i] += c
    return CampaignSummary(
        cycles=len(reports),
        min_utilization=min(overall),
        median_utilization=statistics.median(overall),
        max_utilization=max(overall),
        fraction_at_least_91=sum(u >= UTILIZATION_FLOOR for u in overall) / len(overall),
        fraction_at_least_99=sum(u >= UTILIZATION_TARGET for u in overall) / len(overall),
        aggregate_priority_histogram=tuple(aggregate),
        total_failures=sum(r.fail_count for r in reports),
    )


def export_plot_data(
    reports: Sequence[CycleReport],
    plans: Sequence[TestPlan],
    out_dir: str | Path,
) -> list[Path]:
    """Write utilization, histogram, and timeline CSVs for plotting.

    The timeline lists the plans by cycle, then agent id (see
    :func:`timeline_csv`). Returns the written paths.
    """
    ordered = sorted(plans, key=lambda p: (p.cycle, p.agent_id))
    return write_plot_data(reports, [timeline_csv(ordered)], out_dir)


def timeline_csv(plans: Iterable[TestPlan]) -> str:
    """The timeline CSV rows of ``plans``, in the given order, without the header.

    Each agent's tests lie end to end in plan order, so the per-agent
    intervals never overlap.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    for plan in plans:
        offset = 0.0
        for entry in plan.entries:
            writer.writerow(
                [plan.cycle, plan.agent_id, entry.test_id, offset, entry.planned_duration]
            )
            offset += entry.planned_duration
    return buf.getvalue()


def write_plot_data(
    reports: Sequence[CycleReport],
    timeline: Iterable[str],
    out_dir: str | Path,
) -> list[Path]:
    """:func:`export_plot_data` with the timeline rendered already.

    ``timeline`` holds :func:`timeline_csv` texts, written in turn under
    the header, so several cycles' rows can be rendered apart.
    """
    if not reports:
        raise EmptyCampaignError("export_plot_data requires at least one report")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    agent_ids = sorted({a for r in reports for a in r.per_agent_utilization})

    util_path = out / "utilization.csv"
    with _open_for_write(util_path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["cycle", "overall", "actual_overall", *agent_ids])
        for r in sorted(reports, key=lambda r: r.cycle):
            row = [r.cycle, r.overall_utilization, r.actual_utilization]
            row.extend(
                r.per_agent_utilization.get(a, "") for a in agent_ids
            )
            writer.writerow(row)

    summary = campaign_summary(reports)
    bins = len(summary.aggregate_priority_histogram)
    hist_path = out / "priority_histogram.csv"
    with _open_for_write(hist_path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_index", "bin_start", "bin_end", "count"])
        for i, count in enumerate(summary.aggregate_priority_histogram):
            writer.writerow([i, i / bins, (i + 1) / bins, count])

    timeline_path = out / "timeline.csv"
    with _open_for_write(timeline_path) as fh:
        csv.writer(fh).writerow(["cycle", "agent_id", "test_id", "start_offset", "duration"])
        fh.writelines(timeline)

    return [util_path, hist_path, timeline_path]


def _open_for_write(path: Path):
    try:
        return open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def save_report(report: CycleReport, path: str | Path) -> None:
    codec.save(report, path)


def load_report(path: str | Path) -> CycleReport:
    return codec.load(CycleReport, path)
