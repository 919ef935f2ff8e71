"""Configuration layering: defaults, YAML file, explicit overrides."""

from __future__ import annotations

import typing
from dataclasses import fields
from pathlib import Path

import pytest
import yaml

from cisched import (
    MissingFileError,
    SchedulerKind,
    TypeMismatchError,
    UnknownKeyError,
    parse_config,
)
from cisched.config import RunConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def write_config(tmp_path, text):
    path = tmp_path / "config.yaml"
    path.write_text(text, encoding="utf-8")
    return path


def test_defaults_build_without_file():
    cfg = parse_config(None)
    assert cfg.priority.w_staleness == 0.4
    assert cfg.priority.history_window == 5
    assert cfg.solver.time_budget_ms == 2000
    assert cfg.solver.backend == "auto"
    assert cfg.simulation.scheduler is SchedulerKind.OPTIMAL
    assert cfg.simulation.cycles == 1
    assert cfg.workload.test_count == 50


def test_file_overrides_defaults(tmp_path):
    path = write_config(
        tmp_path,
        "solver:\n  time_budget_ms: 500\npriority:\n  w_results: 0.9\n",
    )
    cfg = parse_config(path)
    assert cfg.solver.time_budget_ms == 500
    assert cfg.priority.w_results == 0.9
    assert cfg.solver.staleness_cap == 8


def test_flag_overrides_file(tmp_path):
    # File says 500, the command line says 1000: the flag wins.
    path = write_config(tmp_path, "solver:\n  time_budget_ms: 500\n")
    cfg = parse_config(path, {"solver.time_budget_ms": 1000})
    assert cfg.solver.time_budget_ms == 1000


def test_unknown_keys_are_rejected(tmp_path):
    with pytest.raises(UnknownKeyError):
        parse_config(write_config(tmp_path, "solver:\n  tiem_budget_ms: 500\n"))
    with pytest.raises(UnknownKeyError):
        parse_config(write_config(tmp_path, "solvr:\n  time_budget_ms: 500\n"))
    with pytest.raises(UnknownKeyError):
        parse_config(None, {"solver.warp_factor": 9})
    with pytest.raises(UnknownKeyError):
        parse_config(None, {"time_budget_ms": 100})


def test_type_mismatches_are_rejected(tmp_path):
    with pytest.raises(TypeMismatchError, match=r"solver\.time_budget_ms"):
        parse_config(write_config(tmp_path, "solver:\n  time_budget_ms: fast\n"))
    with pytest.raises(TypeMismatchError):
        parse_config(write_config(tmp_path, "solver:\n  time_budget_ms: true\n"))
    with pytest.raises(TypeMismatchError):
        parse_config(write_config(tmp_path, "solver:\n  diversity: 3\n"))
    with pytest.raises(TypeMismatchError):
        parse_config(write_config(tmp_path, "priority:\n  decay: quick\n"))
    with pytest.raises(TypeMismatchError):
        parse_config(write_config(tmp_path, "solver:\n  backend: 7\n"))
    with pytest.raises(TypeMismatchError):
        parse_config(write_config(tmp_path, "solver: [1, 2]\n"))
    with pytest.raises(TypeMismatchError):
        parse_config(write_config(tmp_path, "- solver\n"))


def test_numeric_coercions():
    cfg = parse_config(None, {"priority.w_static": 1})
    assert cfg.priority.w_static == 1.0
    cfg = parse_config(None, {"solver.time_budget_ms": 500})
    assert cfg.solver.time_budget_ms == 500
    with pytest.raises(TypeMismatchError):
        parse_config(None, {"solver.time_budget_ms": "many"})


def test_missing_file():
    with pytest.raises(MissingFileError):
        parse_config("/nonexistent/config.yaml")


@pytest.mark.parametrize(
    "text",
    [
        "solver:\n  time_budget_ms: [1",
        "!!python/object:os.system x\n",
        "solver: " + "[" * 1_000 + "]" * 1_000 + "\n",
    ],
    ids=["syntax_error", "python_tag", "deep_nesting"],
)
def test_unreadable_yaml_is_invalid_input_naming_the_file(tmp_path, text):
    path = write_config(tmp_path, text)
    with pytest.raises(ValueError) as info:
        parse_config(path)
    assert type(info.value) is ValueError
    assert str(info.value).startswith(f"{path}: ")


def test_non_utf8_yaml_is_invalid_input_naming_the_file(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_bytes(b"\xffsolver: {}\n")
    with pytest.raises(ValueError) as info:
        parse_config(path)
    assert type(info.value) is ValueError
    assert str(info.value).startswith(f"{path}: ")


def test_empty_file_is_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, ""))
    assert cfg.solver.time_budget_ms == 2000


def test_semantic_validation(tmp_path):
    with pytest.raises(TypeMismatchError, match=r"simulation\.scheduler"):
        parse_config(None, {"simulation.scheduler": "fastest"})
    with pytest.raises(TypeMismatchError):
        parse_config(None, {"simulation.cycles": 0})
    with pytest.raises(TypeMismatchError):
        parse_config(None, {"solver.time_budget_ms": 0})
    with pytest.raises(TypeMismatchError):
        parse_config(None, {"solver.backend": "cuda"})
    with pytest.raises(TypeMismatchError):
        parse_config(None, {"solver.backend": "numba"})
    with pytest.raises(ValueError):
        parse_config(None, {"priority.decay": 1.5})
    with pytest.raises(ValueError):
        parse_config(None, {"workload.budget": -3.0})
    # Every section reports a range error the same way, naming section and key.
    for dotted, value in [
        ("priority.decay", 2.0),
        ("solver.staleness_cap", 0),
        ("solver.time_budget_ms", 0),
        ("simulation.cycles", 0),
        ("simulation.default_defect_probability", 5.0),
        ("simulation.jitter_low", 2.0),
        ("simulation.seed", -1),
        ("workload.test_count", -1),
    ]:
        section, _, key = dotted.partition(".")
        with pytest.raises(TypeMismatchError, match=rf"^{section}: {key} must be"):
            parse_config(None, {dotted: value})


@pytest.mark.parametrize(
    "dotted, value",
    [
        ("workload.budget", ".inf"),
        ("workload.budget", ".nan"),
        ("workload.duration_max", ".inf"),
        ("simulation.jitter_high", ".inf"),
        ("priority.w_staleness", ".inf"),
        ("priority.w_duration", ".nan"),
        ("priority.w_results", ".inf"),
        ("priority.w_static", ".inf"),
        ("priority.w_static", ".nan"),
    ],
)
def test_non_finite_floats_are_rejected(tmp_path, dotted, value):
    section, _, key = dotted.partition(".")
    path = write_config(tmp_path, f"{section}:\n  {key}: {value}\n")
    with pytest.raises(TypeMismatchError, match=rf"^{section}: "):
        parse_config(path)


def test_scheduler_values(tmp_path):
    # A Python caller may pass the member itself; JSON and YAML give strings.
    for value in ("greedy", SchedulerKind.GREEDY):
        cfg = parse_config(None, {"simulation.scheduler": value})
        assert cfg.simulation.scheduler is SchedulerKind.GREEDY


def test_readme_config_block_is_the_defaults(tmp_path):
    section = README.read_text(encoding="utf-8").split("\n## Configuration\n", 1)[1]
    block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    assert parse_config(write_config(tmp_path, block)) == parse_config(None)
    documented = yaml.safe_load(block)
    sections = typing.get_type_hints(RunConfig)
    assert documented.keys() == sections.keys()
    for name, keys in documented.items():
        assert keys.keys() == {f.name for f in fields(sections[name])}, name
