"""Cycle metrics, histograms, campaign aggregation, and plot exports."""

from __future__ import annotations

import csv
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cisched import (
    AgentResult,
    CycleReport,
    EmptyCampaignError,
    ExecutionRecord,
    ObjectiveVector,
    Outcome,
    PlanEntry,
    PrioritizedTest,
    Schedule,
    TestPlan,
    campaign_summary,
    export_plot_data,
    load_report,
    make_cycle_report,
    priority_histogram,
    save_report,
    utilization,
)
from cisched.codec import FORMAT_VERSION, decode, encode
from cisched.reporting import timeline_csv, write_plot_data

from helpers import make_agent, make_test


def make_report(cycle=0, overall=0.95, histogram=None, fail_count=0):
    return CycleReport(
        cycle=cycle,
        per_agent_utilization={"a0": overall},
        overall_utilization=overall,
        scheduled_count=3,
        executed_count=3,
        fail_count=fail_count,
        priority_histogram=tuple(histogram or [0] * 20),
        dropped_tests=1,
        actual_utilization=overall,
        budget_overruns=0,
    )


def test_utilization_ratios_are_exact():
    schedule = Schedule(
        assignments={"a0": ("t0",), "a1": ("t1",)},
        objective=ObjectiveVector(1.0, 2.0, 12.0),
    )
    agents = [make_agent("a0", budget=10.0), make_agent("a1", budget=5.0)]
    per_agent, overall = utilization(schedule, agents, {"t0": 9.5, "t1": 2.5})
    assert per_agent == {"a0": 0.95, "a1": 0.5}
    assert overall == 0.8


def test_utilization_empty_agent_is_zero():
    schedule = Schedule(assignments={"a0": ()}, objective=ObjectiveVector(0, 0, 0))
    per_agent, overall = utilization(schedule, [make_agent("a0")], {})
    assert per_agent == {"a0": 0.0}
    assert overall == 0.0


def test_priority_histogram_bins_are_right_closed():
    ranked = [
        PrioritizedTest(make_test("t0"), 0.05),
        PrioritizedTest(make_test("t1"), 0.06),
        PrioritizedTest(make_test("t2"), 0.97),
    ]
    counts = priority_histogram(ranked)
    # Bins are [k/20, (k+1)/20) with the last closed: 0.05 sits on the
    # second bin's left edge, so bin 1 holds two values and bin 19 one.
    want = [0] * 20
    want[1] = 2
    want[19] = 1
    assert counts == tuple(want)


def test_priority_histogram_edges():
    ranked = [
        PrioritizedTest(make_test("t0"), 0.0),
        PrioritizedTest(make_test("t1"), 1.0),
    ]
    counts = priority_histogram(ranked)
    assert counts[0] == 1
    assert counts[19] == 1
    assert sum(counts) == 2


def test_priority_histogram_validation_and_empty():
    assert priority_histogram([]) == (0,) * 20
    with pytest.raises(ValueError):
        priority_histogram([], bins=0)
    with pytest.raises(ValueError):
        priority_histogram([PrioritizedTest(make_test("t0"), 1.5)])


@given(st.lists(st.floats(0.0, 1.0), max_size=50))
def test_priority_histogram_counts_everything(values):
    ranked = [PrioritizedTest(make_test(f"t{i}"), v) for i, v in enumerate(values)]
    assert sum(priority_histogram(ranked)) == len(values)


def _numpy_histogram(values, bins):
    """The numpy form priority_histogram replaced, kept as its reference."""
    counts = np.zeros(bins, dtype=np.int64)
    if values:
        array = np.array(values, dtype=np.float64)
        if array.min() < 0.0 or array.max() > 1.0:
            raise ValueError("priorities must lie in [0, 1]")
        edges = np.linspace(0.0, 1.0, bins + 1)
        idx = np.clip(np.searchsorted(edges, array, side="right") - 1, 0, bins - 1)
        np.add.at(counts, idx, 1)
    return tuple(int(c) for c in counts)


@pytest.mark.parametrize("bins", [1, 2, 3, 7, 10, 20, 49, 100])
def test_priority_histogram_matches_the_numpy_form_on_every_edge(bins):
    edges = [float(e) for e in np.linspace(0.0, 1.0, bins + 1)]
    # Each edge, its float neighbours, and the ends of the range.
    values = [0.0, 1.0, *edges]
    values += [np.nextafter(e, 2.0) for e in edges[:-1]]
    values += [np.nextafter(e, -1.0) for e in edges[1:]]
    ranked = [PrioritizedTest(make_test(f"t{i}"), float(v)) for i, v in enumerate(values)]
    assert priority_histogram(ranked, bins) == _numpy_histogram(values, bins)
    for bad in (-1e-300, 1.0000000000000002, -1.0, 2.0):
        with pytest.raises(ValueError):
            _numpy_histogram([*values, bad], bins)
        with pytest.raises(ValueError):
            priority_histogram([*ranked, PrioritizedTest(make_test("bad"), bad)], bins)


@given(
    st.lists(st.floats(0.0, 1.0) | st.integers(0, 1), max_size=50),
    st.integers(1, 64),
)
def test_priority_histogram_matches_the_numpy_form(values, bins):
    ranked = [PrioritizedTest(make_test(f"t{i}"), v) for i, v in enumerate(values)]
    assert priority_histogram(ranked, bins) == _numpy_histogram(values, bins)


def test_make_cycle_report_counts():
    prioritized = [
        PrioritizedTest(make_test("t0", duration=6.0), 0.9),
        PrioritizedTest(make_test("t1", duration=5.0), 0.5),
        PrioritizedTest(make_test("t2", duration=5.0), 0.3),
    ]
    schedule = Schedule(
        assignments={"a0": ("t0",)}, objective=ObjectiveVector(0.9, 1.0, 6.0)
    )
    agents = [make_agent("a0", budget=10.0)]
    results = [
        AgentResult(
            "a0",
            4,
            (
                ExecutionRecord("t0", "a0", 4, Outcome.FAIL, 11.0),
            ),
            (),
        )
    ]
    report = make_cycle_report(4, schedule, prioritized, agents, results)
    assert report.cycle == 4
    assert report.scheduled_count == 1
    assert report.executed_count == 1
    assert report.fail_count == 1
    assert report.dropped_tests == 2
    assert report.per_agent_utilization == {"a0": 0.6}
    assert report.overall_utilization == 0.6
    assert report.actual_utilization == pytest.approx(1.1)
    assert report.budget_overruns == 1
    assert sum(report.priority_histogram) == 3


def test_campaign_summary_aggregates():
    reports = [
        make_report(0, overall=0.90, histogram=[1] + [0] * 19, fail_count=2),
        make_report(1, overall=0.95, histogram=[0, 1] + [0] * 18),
        make_report(2, overall=1.00, histogram=[2] + [0] * 19, fail_count=1),
    ]
    summary = campaign_summary(reports)
    assert summary.cycles == 3
    assert summary.min_utilization == 0.90
    assert summary.median_utilization == 0.95
    assert summary.max_utilization == 1.00
    assert summary.fraction_at_least_91 == pytest.approx(2 / 3)
    assert summary.fraction_at_least_99 == pytest.approx(1 / 3)
    assert summary.aggregate_priority_histogram[0] == 3
    assert summary.aggregate_priority_histogram[1] == 1
    assert summary.total_failures == 3


def test_campaign_summary_rejects_empty_and_mismatched():
    with pytest.raises(EmptyCampaignError):
        campaign_summary([])
    reports = [make_report(0), replace(make_report(1), priority_histogram=(0,) * 10)]
    with pytest.raises(ValueError):
        campaign_summary(reports)


def test_report_round_trip_drops_wall_time(tmp_path):
    report = make_report(cycle=7)
    doc = encode(report)
    assert "solver_wall_time_ms" not in doc
    assert doc["format_version"] == FORMAT_VERSION
    rebuilt = decode(CycleReport, doc)
    assert rebuilt == report

    path = tmp_path / "report.json"
    save_report(report, path)
    assert load_report(path) == report
    with pytest.raises(ValueError):
        decode(CycleReport, {**doc, "format_version": 2})
    with pytest.raises(ValueError):
        decode(CycleReport, {**doc, "bonus": 1})


def test_export_plot_data_writes_three_csvs(tmp_path):
    reports = [make_report(0, overall=0.92), make_report(1, overall=0.97)]
    plans = [
        TestPlan(
            "a0",
            0,
            (
                PlanEntry("t0", planned_duration=2.0, priority=0.9),
                PlanEntry("t1", planned_duration=1.5, priority=0.4),
            ),
        ),
        TestPlan("a0", 1, (PlanEntry("t2", planned_duration=1.0, priority=0.5),)),
    ]
    paths = export_plot_data(reports, plans, tmp_path)
    assert [p.name for p in paths] == [
        "utilization.csv",
        "priority_histogram.csv",
        "timeline.csv",
    ]

    with open(paths[0], newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["cycle", "overall", "actual_overall", "a0"]
    assert len(rows) == 3
    assert rows[1][0] == "0"

    with open(paths[1], newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["bin_index", "bin_start", "bin_end", "count"]
    assert len(rows) == 21

    with open(paths[2], newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["cycle", "agent_id", "test_id", "start_offset", "duration"]
    # Offsets accumulate within one agent's plan.
    assert rows[1][3] == "0.0"
    assert rows[2][3] == "2.0"
    assert len(rows) == 4

    with pytest.raises(EmptyCampaignError):
        export_plot_data([], [], tmp_path)


def test_timeline_rendered_in_chunks_writes_the_same_bytes(tmp_path):
    reports = [make_report(0), make_report(1)]
    plans = [
        TestPlan("a1", 0, (PlanEntry("t0", planned_duration=2.0, priority=0.9),)),
        TestPlan("a0", 0, (PlanEntry("t1", planned_duration=1.5, priority=0.4),)),
        TestPlan("a0", 1, (PlanEntry("t2", planned_duration=1.0, priority=0.5),)),
    ]
    whole = export_plot_data(reports, plans, tmp_path / "whole")
    chunks = [timeline_csv([plans[1], plans[0]]), timeline_csv(plans[2:])]
    parts = write_plot_data(reports, chunks, tmp_path / "parts")
    assert [p.read_bytes() for p in parts] == [p.read_bytes() for p in whole]
    assert whole[2].read_bytes().startswith(b"cycle,agent_id,test_id,start_offset,duration\r\n0,a0,")


def test_summary_round_trip_shape():
    summary = campaign_summary([make_report(0)])
    doc = encode(summary)
    assert doc["format_version"] == FORMAT_VERSION
    assert doc["cycles"] == 1
    assert json.dumps(doc)
