"""Command line interface: exit codes, artifacts, error reporting."""

from __future__ import annotations

import concurrent.futures
import contextlib
import csv
import io
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

from cisched import ExecutionRecord, Outcome, save_repository
from cisched.cli import main
from cisched.codec import FORMAT_VERSION, encode_fields

from helpers import make_agent, make_test, src_env

FAST_ENV = src_env()


def run_cli(*args, env=None, input=None):
    return subprocess.run(
        [sys.executable, "-m", "cisched.cli", *args],
        input=input,
        capture_output=True,
        text=True,
        env=env or FAST_ENV,
        timeout=300,
    )


def run_main(capsys, *args):
    """cisched.cli.main in this process, with run_cli's result fields."""
    returncode = main(list(args))
    out, err = capsys.readouterr()
    return SimpleNamespace(returncode=returncode, stdout=out, stderr=err)


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


def test_importing_the_cli_loads_no_numpy():
    # numpy is imported by the functions that draw random numbers, so a
    # command that draws none does not pay for it.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, cisched.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=FAST_ENV,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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


REPORT_FILES = ("utilization.csv", "priority_histogram.csv", "timeline.csv", "campaign_summary.json")


@pytest.fixture(scope="module")
def six_cycles(tmp_path_factory):
    """A finished six-cycle greedy run; a test that changes it works on a copy."""
    root = tmp_path_factory.mktemp("six_cycles")
    config = root / "config.yaml"
    config.write_text(
        "workload:\n  test_count: 12\n  agent_count: 3\n  budget: 10.0\n"
        "simulation:\n  cycles: 6\n  scheduler: greedy\n",
        encoding="utf-8",
    )
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--config", str(config), "--out", str(root / "run"), "--seed", "7"]) == 0
    return root / "run"


def report_on_cpus(monkeypatch, capsys, cpus, run, out):
    """cisched report in this process as if it could run on ``cpus`` CPUs (None: unknown)."""
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    proc = run_main(capsys, "report", "--in", str(run), "--out", str(out))
    assert multiprocessing.active_children() == []
    return proc


def test_report_workers_write_the_in_process_bytes(six_cycles, tmp_path, monkeypatch, capsys):
    # Three CPUs give three workers of two cycles each; one CPU, or an
    # unknown CPU set, renders in this process.
    pools = []

    class RecordedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, workers, **kwargs):
            pools.append(workers)
            super().__init__(workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordedPool)
    outputs = {}
    for cpus in (3, 1, None):
        out = tmp_path / f"cpus_{cpus}"
        proc = report_on_cpus(monkeypatch, capsys, cpus, six_cycles, out)
        assert proc.returncode == 0, proc.stderr
        outputs[cpus] = [(out / name).read_bytes() for name in REPORT_FILES]
    assert pools == [3]
    assert outputs[3] == outputs[1] == outputs[None]
    with open(tmp_path / "cpus_3" / "timeline.csv", newline="", encoding="utf-8") as fh:
        keys = [(int(row["cycle"]), row["agent_id"]) for row in csv.DictReader(fh)]
    # Each plan's rows are contiguous, by cycle, then agent id.
    plans = list(dict.fromkeys(keys))
    assert plans == sorted(plans) and len(keys) > len(plans)
    assert {cycle for cycle, _ in plans} == set(range(6))


@pytest.mark.parametrize("cycle", [0, 5], ids=["first-cycle", "last-cycle"])
def test_report_names_a_malformed_plan_read_by_a_worker(six_cycles, tmp_path, monkeypatch, capsys, cycle):
    run = tmp_path / "run"
    shutil.copytree(six_cycles, run)
    plan = sorted((run / f"cycle_{cycle}").glob("plan_*.json"))[-1]
    plan.write_text("{not json", encoding="utf-8")
    messages = []
    for cpus in (3, 1):
        out = tmp_path / f"cpus_{cpus}"
        proc = report_on_cpus(monkeypatch, capsys, cpus, run, out)
        assert proc.returncode == 1
        payload = json.loads(proc.stderr)
        assert payload["error"] == "invalid_input"
        assert payload["message"].startswith(f"{plan}: ")
        messages.append(payload["message"])
        assert not (out / "timeline.csv").exists()
    assert messages[0] == messages[1]


def _copy_report(run):
    shutil.copy(run / "cycle_1" / "report.json", run / "cycle_2" / "report.json")
    return run / "cycle_2" / "report.json", "holds the report of cycle 1"


def _copy_plan(run):
    source = sorted((run / "cycle_1").glob("plan_*.json"))[0]
    shutil.copy(source, run / "cycle_2" / source.name)
    agent = source.name[len("plan_"):-len(".json")]
    return run / "cycle_2" / source.name, f"holds the plan of agent {agent!r} for cycle 1"


def _rename_plan(run):
    source = sorted((run / "cycle_2").glob("plan_*.json"))[0]
    moved = source.rename(run / "cycle_2" / "plan_zz.json")
    agent = source.name[len("plan_"):-len(".json")]
    return moved, f"holds the plan of agent {agent!r} for cycle 2"


@pytest.mark.parametrize("misfile", [_copy_report, _copy_plan, _rename_plan])
def test_report_refuses_a_file_filed_under_another_cycle_or_agent(
    six_cycles, tmp_path, monkeypatch, capsys, misfile
):
    # Such a file used to be counted under its directory's cycle or its
    # file name's agent, so one cycle was listed twice and another never.
    run = tmp_path / "run"
    shutil.copytree(six_cycles, run)
    path, what = misfile(run)
    proc = report_on_cpus(monkeypatch, capsys, 3, run, tmp_path / "out")
    assert proc.returncode == 1
    assert json.loads(proc.stderr) == {"error": "invalid_input", "message": f"{path}: {what}"}


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


def test_simulate_continues_a_campaign_from_a_pipe(tmp_path):
    # A pipe gives its bytes once: the run must not read the log twice, and
    # must write what the same run from the file writes.
    config = tmp_path / "config.yaml"
    config.write_text("workload:\n  test_count: 12\n  agent_count: 2\n  budget: 10.0\n", encoding="utf-8")
    gen = tmp_path / "gen"
    assert run_cli("generate-workload", "--config", str(config), "--out", str(gen), "--seed", "5").returncode == 0

    def simulate(out, *extra, log=None):
        # With input, the child's /dev/stdin is a pipe.
        return run_cli(
            "simulate", "--config", str(config), "--repo", str(gen / "repository.json"),
            "--out", str(out), "--cycles", "2", "--seed", "3", *extra, input=log,
        )

    def outputs(out):
        files = [p for p in out.rglob("*") if p.is_file() and p.name != "timings.jsonl"]
        return {p.relative_to(out): p.read_bytes() for p in files}

    first, from_file, from_pipe = tmp_path / "first", tmp_path / "file", tmp_path / "pipe"
    assert simulate(first).returncode == 0
    log = (first / "history.jsonl").read_text(encoding="utf-8")
    proc = simulate(from_file, "--history", str(first / "history.jsonl"))
    assert proc.returncode == 0, proc.stderr
    proc = simulate(from_pipe, "--history", "/dev/stdin", log=log)
    assert proc.returncode == 0, proc.stderr
    assert outputs(from_pipe) == outputs(from_file)
    assert (from_pipe / "history.jsonl").read_text(encoding="utf-8").startswith(log)

    # A malformed log from a pipe fails before anything under --out exists.
    broken = tmp_path / "broken"
    proc = simulate(broken, "--history", "/dev/stdin", log=log + "{not json\n")
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["message"].startswith("/dev/stdin:")
    assert not broken.exists()


def test_simulate_replaces_an_earlier_runs_cycles(tmp_path):
    # A shorter run into a reused --out must not leave the longer run's
    # later cycles for report to count.
    config = tmp_path / "config.yaml"
    config.write_text(
        "workload:\n  test_count: 12\n  agent_count: 2\n  budget: 10.0\n"
        "simulation:\n  scheduler: greedy\n",
        encoding="utf-8",
    )
    out = tmp_path / "run"
    for cycles, seed in ((6, 3), (3, 4)):
        proc = run_cli(
            "simulate", "--config", str(config), "--out", str(out),
            "--cycles", str(cycles), "--seed", str(seed),
        )
        assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in out.glob("cycle_*")) == ["cycle_0", "cycle_1", "cycle_2"]
    proc = run_cli("report", "--in", str(out), "--out", str(tmp_path / "csv"))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["cycles"] == 3


def test_schedule_replaces_the_cycles_plan_set(tmp_path):
    # A plan left for an agent that has since gone inactive must not stay
    # beside the new plan set.
    gen = tmp_path / "gen"
    proc = run_cli("generate-workload", "--out", str(gen), "--seed", "5")
    assert proc.returncode == 0, proc.stderr
    repo = gen / "repository.json"
    history = tmp_path / "history.jsonl"
    history.write_text("", encoding="utf-8")
    out = tmp_path / "plans"

    def schedule():
        proc = run_cli(
            "schedule", "--repo", str(repo), "--history", str(history),
            "--out", str(out), "--scheduler", "greedy",
        )
        assert proc.returncode == 0, proc.stderr
        return sorted(p.name for p in (out / "cycle_0").glob("plan_*.json"))

    assert schedule() == ["plan_agent00.json", "plan_agent01.json", "plan_agent02.json"]
    document = json.loads(repo.read_text(encoding="utf-8"))
    for agent in document["agents"]:
        if agent["id"] == "agent02":
            agent["active"] = False
    repo.write_text(json.dumps(document), encoding="utf-8")
    assert schedule() == ["plan_agent00.json", "plan_agent01.json"]


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


def test_unknown_config_key_exits_1(tmp_path, capsys):
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
    # These and the case below run in this process: a subprocess each costs
    # an interpreter start.
    for section, key, value in [
        ("priority", "decay", 2.0),
        ("solver", "staleness_cap", 0),
        ("solver", "time_budget_ms", 0),
        ("simulation", "cycles", 0),
        ("simulation", "default_defect_probability", 5.0),
        ("simulation", "jitter_low", 2.0),
        ("simulation", "seed", -1),
        ("workload", "test_count", -1),
    ]:
        config.write_text(f"{section}:\n  {key}: {value}\n", encoding="utf-8")
        proc = run_main(capsys, "simulate", "--config", str(config), "--out", str(tmp_path / "x"))
        assert proc.returncode == 1
        payload = json.loads(proc.stderr)
        assert payload["error"] == "type_mismatch"
        assert payload["message"].startswith(f"{section}: {key} must be")
        assert not (tmp_path / "x").exists()

    # A file that is not plain YAML is invalid input, named in the message.
    config.write_text("solver:\n  time_budget_ms: [1", encoding="utf-8")
    proc = run_main(capsys, "simulate", "--config", str(config), "--out", str(tmp_path / "x"))
    assert proc.returncode == 1
    payload = json.loads(proc.stderr)
    assert payload["error"] == "invalid_input"
    assert payload["message"].startswith(f"{config}: ")
    assert not (tmp_path / "x").exists()


def test_non_utf8_repository_is_invalid_input_naming_the_file(tmp_path, capsys):
    repo = tmp_path / "repository.json"
    repo.write_bytes(b"\xff{}")
    proc = run_main(capsys, "validate", "--repo", str(repo))
    assert proc.returncode == 1
    payload = json.loads(proc.stderr)
    assert payload["error"] == "invalid_input"
    assert payload["message"].startswith(f"{repo}: ")


def test_nodes_per_ms_is_an_unknown_key(tmp_path):
    # solver.time_budget_ms alone sizes the search, so a throughput key is
    # rejected like any typo.
    config = tmp_path / "config.yaml"
    config.write_text("solver:\n  nodes_per_ms: 70\n", encoding="utf-8")
    proc = run_cli("simulate", "--config", str(config), "--out", str(tmp_path / "x"))
    assert proc.returncode == 1
    payload = json.loads(proc.stderr)
    assert payload["error"] == "unknown_key"
    assert "solver.nodes_per_ms" in payload["message"]
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
