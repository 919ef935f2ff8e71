"""Command line interface: exit codes, artifacts, error reporting."""

from __future__ import annotations

import csv
import json
import subprocess
import sys

import pytest

from cisched import ExecutionRecord, Outcome, save_repository
from cisched.codec import FORMAT_VERSION, encode_fields

from helpers import make_agent, make_test, src_env

FAST_ENV = src_env()


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "cisched.cli", *args],
        capture_output=True,
        text=True,
        env=env or FAST_ENV,
        timeout=300,
    )


def write_repo(tmp_path, tests, agents):
    path = tmp_path / "repository.json"
    save_repository(tests, agents, path)
    return path


def small_repo_path(tmp_path):
    tests = [
        make_test("t0", duration=2.0, static=0.9, agents=("a0", "a1")),
        make_test("t1", duration=3.0, static=0.4, agents=("a0", "a1")),
    ]
    agents = [make_agent("a0", budget=6.0), make_agent("a1", budget=6.0)]
    return write_repo(tmp_path, tests, agents)


def test_validate_ok(tmp_path):
    repo = small_repo_path(tmp_path)
    proc = run_cli("validate", "--repo", str(repo))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload == {"status": "ok", "tests": 2, "agents": 2}


def test_validate_rejects_broken_repo(tmp_path):
    repo = write_repo(
        tmp_path,
        [make_test("t0", duration=-1.0)],
        [make_agent("a0")],
    )
    proc = run_cli("validate", "--repo", str(repo))
    assert proc.returncode == 1
    payload = json.loads(proc.stderr)
    assert payload["error"] == "validation"
    assert payload["violations"]


def test_prioritize_lists_descending(tmp_path):
    repo = small_repo_path(tmp_path)
    proc = run_cli("prioritize", "--repo", str(repo))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["cycle"] == 0
    priorities = [entry["priority"] for entry in payload["prioritized"]]
    assert priorities == sorted(priorities, reverse=True)
    assert {entry["test_id"] for entry in payload["prioritized"]} == {"t0", "t1"}


def test_schedule_writes_plans(tmp_path):
    repo = small_repo_path(tmp_path)
    history = tmp_path / "history.jsonl"
    history.write_text("", encoding="utf-8")
    out = tmp_path / "out"
    proc = run_cli(
        "schedule",
        "--repo",
        str(repo),
        "--history",
        str(history),
        "--out",
        str(out),
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["cycle"] == 0
    assert payload["scheduled"] == 2
    assert set(payload["objective"]) == {"total_priority", "diversity", "used_time"}
    plan_files = sorted(p.name for p in (out / "cycle_0").glob("plan_*.json"))
    assert plan_files
    assert payload["plans"] == len(plan_files)


def test_schedule_honours_configured_scheduler(tmp_path):
    # Trap shape: the top-priority test crowds out two that pack better, so
    # first-fill and the exact schedule differ.
    repo = write_repo(
        tmp_path,
        [
            make_test("ta", duration=6.0, static=0.9),
            make_test("tb", duration=5.0, static=0.1),
            make_test("tc", duration=5.0, static=0.1),
        ],
        [make_agent("a0", budget=10.0)],
    )
    history = tmp_path / "history.jsonl"
    history.write_text("", encoding="utf-8")
    config = tmp_path / "config.yaml"
    config.write_text("simulation:\n  scheduler: greedy\n", encoding="utf-8")

    def objective(*extra):
        proc = run_cli(
            "schedule", "--repo", str(repo), "--history", str(history),
            "--out", str(tmp_path / "plans"), *extra,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)["objective"]

    greedy = objective("--scheduler", "greedy")
    assert greedy != objective()
    assert objective("--config", str(config)) == greedy


def test_unavailable_backend_exits_1_with_json(tmp_path):
    # Only the Python kernel exists, so asking for numba is a config error,
    # reported before any output directory is made.
    repo = small_repo_path(tmp_path)
    history = tmp_path / "history.jsonl"
    history.write_text("", encoding="utf-8")
    config = tmp_path / "config.yaml"
    config.write_text("solver:\n  backend: numba\n", encoding="utf-8")
    proc = run_cli(
        "schedule", "--repo", str(repo), "--history", str(history),
        "--out", str(tmp_path / "out"), "--config", str(config),
    )
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1
    payload = json.loads(proc.stderr)
    assert payload["error"] == "type_mismatch"
    assert payload["message"].startswith("solver: backend must be")
    assert "'numba'" in payload["message"]
    assert not (tmp_path / "out").exists()


def test_simulate_generates_and_reports(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text(
        "workload:\n"
        "  test_count: 12\n"
        "  agent_count: 2\n"
        "  budget: 10.0\n"
        "simulation:\n"
        "  cycles: 2\n",
        encoding="utf-8",
    )
    out = tmp_path / "sim"
    proc = run_cli(
        "simulate", "--config", str(config), "--out", str(out), "--seed", "7"
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["cycles"] == 2
    assert (out / "history.jsonl").exists()
    assert (out / "cycle_0" / "report.json").exists()
    assert (out / "cycle_1" / "report.json").exists()

    report_out = tmp_path / "csv"
    proc = run_cli("report", "--in", str(out), "--out", str(report_out))
    assert proc.returncode == 0, proc.stderr
    assert (report_out / "utilization.csv").exists()
    assert (report_out / "priority_histogram.csv").exists()
    assert (report_out / "timeline.csv").exists()
    assert (report_out / "campaign_summary.json").exists()

    json_out = tmp_path / "json"
    proc = run_cli("report", "--in", str(out), "--out", str(json_out), "--format", "json")
    assert proc.returncode == 0, proc.stderr
    reports = json.loads((json_out / "reports.json").read_text(encoding="utf-8"))
    assert [r["cycle"] for r in reports] == [0, 1]
    assert all("format_version" in r for r in reports)


def test_report_reads_only_finished_cycles(tmp_path):
    # An interrupted run leaves a cycle directory without report.json, and
    # foreign cycle_* entries may sit beside the cycles; neither is read.
    config = tmp_path / "config.yaml"
    config.write_text(
        "workload:\n  test_count: 12\n  agent_count: 2\n  budget: 10.0\n"
        "simulation:\n  cycles: 3\n  scheduler: greedy\n",
        encoding="utf-8",
    )
    out = tmp_path / "sim"
    proc = run_cli("simulate", "--config", str(config), "--out", str(out), "--seed", "7")
    assert proc.returncode == 0, proc.stderr
    (out / "cycle_1" / "report.json").unlink()
    (out / "cycle_old").mkdir()
    (out / "cycle_notes.txt").write_text("not a cycle\n", encoding="utf-8")

    report_out = tmp_path / "csv"
    proc = run_cli("report", "--in", str(out), "--out", str(report_out))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["cycles"] == 2
    for name in ("utilization.csv", "timeline.csv"):
        with open(report_out / name, encoding="utf-8") as fh:
            cycles = {row["cycle"] for row in csv.DictReader(fh)}
        assert cycles == {"0", "2"}, name


def test_duplicate_history_record_names_its_line(tmp_path):
    repo = small_repo_path(tmp_path)
    history = tmp_path / "history.jsonl"
    record = {"type": "record", **encode_fields(ExecutionRecord("t0", "a0", 0, Outcome.PASS, 1.0))}
    marker = {"type": "cycle", "cycle": 0, "format_version": FORMAT_VERSION}
    history.write_text(
        "".join(json.dumps(line) + "\n" for line in (record, record, marker)), encoding="utf-8"
    )
    proc = run_cli(
        "schedule", "--repo", str(repo), "--history", str(history), "--out", str(tmp_path / "p")
    )
    assert proc.returncode == 1
    payload = json.loads(proc.stderr)
    assert payload["error"] == "duplicate_record"
    assert payload["message"] == f"{history}:3: duplicate record for test 't0' in cycle 0"


def test_simulate_on_repository(tmp_path):
    repo = small_repo_path(tmp_path)
    out = tmp_path / "sim"
    proc = run_cli(
        "simulate", "--repo", str(repo), "--out", str(out), "--cycles", "1"
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "cycle_0" / "report.json").exists()


def test_simulate_continues_a_campaign(tmp_path):
    # Three cycles, then three more from the first run's log, must write
    # what six cycles in one run write.
    config = tmp_path / "config.yaml"
    config.write_text(
        "workload:\n  test_count: 12\n  agent_count: 2\n  budget: 10.0\n"
        "simulation:\n  default_defect_probability: 0.3\n",
        encoding="utf-8",
    )
    gen = tmp_path / "gen"
    proc = run_cli("generate-workload", "--config", str(config), "--out", str(gen), "--seed", "5")
    assert proc.returncode == 0, proc.stderr

    def simulate(out, cycles, *extra):
        proc = run_cli(
            "simulate", "--config", str(config), "--repo", str(gen / "repository.json"),
            "--out", str(out), "--cycles", str(cycles), *extra,
        )
        assert proc.returncode == 0, proc.stderr
        return (out / "history.jsonl").read_bytes()

    def cycle_files(*dirs):
        return {p.relative_to(d): p.read_bytes() for d in dirs for p in d.glob("cycle_*/*")}

    whole = tmp_path / "whole"
    log = simulate(whole, 6)

    # Into a new directory, from a log without its final newline.
    first, second = tmp_path / "first", tmp_path / "second"
    simulate(first, 3)
    stripped = tmp_path / "stripped.jsonl"
    stripped.write_bytes((first / "history.jsonl").read_bytes().rstrip(b"\n"))
    assert simulate(second, 3, "--history", str(stripped)) == log
    assert cycle_files(first, second) == cycle_files(whole)

    # Into the directory that holds the log, which ends in an interrupted cycle.
    same = tmp_path / "same"
    simulate(same, 3)
    interrupted = {
        "type": "record", "test_id": "t0", "agent_id": "a0", "cycle": 3,
        "outcome": "fail", "actual_duration": 1.0,
    }
    with open(same / "history.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(interrupted) + "\n")
    assert simulate(same, 3, "--history", str(same / "history.jsonl")) == log
    assert cycle_files(same) == cycle_files(whole)


def test_simulate_history_requires_repo(tmp_path):
    proc = run_cli(
        "simulate",
        "--history",
        "anything.jsonl",
        "--out",
        str(tmp_path / "x"),
    )
    assert proc.returncode == 2
    assert "--history requires --repo" in proc.stderr


def test_usage_errors_exit_2(tmp_path):
    proc = run_cli("simulate")
    assert proc.returncode == 2
    proc = run_cli("report", "--in", "somewhere")
    assert proc.returncode == 2
    proc = run_cli()
    assert proc.returncode == 2


def test_infeasible_cycle_exits_1_with_ids(tmp_path):
    repo = write_repo(
        tmp_path,
        [make_test("t0", duration=50.0, obligatory=True)],
        [make_agent("a0", budget=10.0)],
    )
    out = tmp_path / "sim"
    proc = run_cli("simulate", "--repo", str(repo), "--out", str(out))
    assert proc.returncode == 1
    payload = json.loads(proc.stderr)
    assert payload["error"] == "cycle_failed"
    assert payload["cycle"] == 0
    assert payload["test_ids"] == ["t0"]


def test_unknown_config_key_exits_1(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text("solver:\n  tiem_budget_ms: 100\n", encoding="utf-8")
    proc = run_cli(
        "simulate", "--config", str(config), "--out", str(tmp_path / "x")
    )
    assert proc.returncode == 1
    payload = json.loads(proc.stderr)
    assert payload["error"] == "unknown_key"
    assert "tiem_budget_ms" in payload["message"]

    # An out-of-range value in any section names the section and the key.
    for section, key, value in [
        ("priority", "decay", 2.0),
        ("solver", "staleness_cap", 0),
        ("solver", "nodes_per_ms", 0),
        ("solver", "nodes_per_ms", -3),
        ("simulation", "cycles", 0),
        ("simulation", "default_defect_probability", 5.0),
        ("simulation", "jitter_low", 2.0),
        ("simulation", "seed", -1),
        ("workload", "test_count", -1),
    ]:
        config.write_text(f"{section}:\n  {key}: {value}\n", encoding="utf-8")
        proc = run_cli("simulate", "--config", str(config), "--out", str(tmp_path / "x"))
        assert proc.returncode == 1
        payload = json.loads(proc.stderr)
        assert payload["error"] == "type_mismatch"
        assert payload["message"].startswith(f"{section}: {key} must be")
        assert not (tmp_path / "x").exists()


def test_missing_config_file_exits_1(tmp_path):
    proc = run_cli(
        "simulate", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path / "x")
    )
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "missing_file"


def test_generate_workload_writes_repository(tmp_path):
    out = tmp_path / "generated"
    proc = run_cli("generate-workload", "--out", str(out), "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["tests"] == 50
    assert (out / "repository.json").exists()
    model = json.loads((out / "outcome_model.json").read_text(encoding="utf-8"))
    assert model["seed"] == 3
    proc = run_cli("validate", "--repo", str(out / "repository.json"))
    assert proc.returncode == 0


def test_seed_flag_reproduces_runs(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text(
        "workload:\n  test_count: 10\n  agent_count: 2\n  budget: 8.0\n",
        encoding="utf-8",
    )
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        proc = run_cli(
            "simulate", "--config", str(config), "--out", str(out), "--seed", "11"
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    a = (outs[0] / "cycle_0" / "report.json").read_bytes()
    b = (outs[1] / "cycle_0" / "report.json").read_bytes()
    assert a == b
    assert (outs[0] / "history.jsonl").read_bytes() == (outs[1] / "history.jsonl").read_bytes()


@pytest.mark.parametrize(
    "name, content, args",
    [
        ("bad.json", "5", ["validate", "--repo", "{bad}"]),
        ("bad.json", "[]", ["validate", "--repo", "{bad}"]),
        ("bad.json", "5", ["generate-workload", "--workload", "{bad}", "--out", "{tmp}/gen"]),
        ("run/cycle_0/report.json", "5", ["report", "--in", "{tmp}/run", "--out", "{tmp}/out"]),
        (
            "bad.jsonl",
            "[1]",
            ["schedule", "--repo", "{repo}", "--history", "{bad}", "--out", "{tmp}/plans"],
        ),
    ],
    ids=["repo-number", "repo-list", "workload-number", "report-number", "history-list"],
)
def test_wrong_shaped_documents_exit_1(tmp_path, name, content, args):
    repo = small_repo_path(tmp_path)
    bad = tmp_path / name
    bad.parent.mkdir(parents=True, exist_ok=True)
    bad.write_text(content + "\n", encoding="utf-8")
    proc = run_cli(*(a.format(bad=bad, tmp=tmp_path, repo=repo) for a in args))
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    payload = json.loads(proc.stderr)
    assert payload["error"] == "invalid_input"
    assert payload["message"]
