"""Layered configuration: documented defaults, optional YAML file, flag overrides."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

import yaml

from cisched import codec
from cisched.priority import PriorityWeights
from cisched.simulator import SchedulerKind
from cisched.workload import WorkloadSpec


class UnknownKeyError(Exception):
    """A config key nobody defines, most likely a typo."""


class TypeMismatchError(Exception):
    """A config value of the wrong type."""


class MissingFileError(Exception):
    """The named config file does not exist."""


DEFAULTS: dict[str, dict[str, Any]] = {
    "priority": {
        "w_staleness": 0.4,
        "w_duration": 0.2,
        "w_results": 0.4,
        "w_static": 0.5,
        "history_window": 5,
        "decay": 0.5,
        "staleness_cap": 20,
        "shorter_is_higher": True,
    },
    "solver": {
        "time_budget_ms": 2000,
        "staleness_cap": 8,
        "diversity": True,
        "backend": "auto",
        "nodes_per_ms": None,
    },
    "simulation": {
        "cycles": 1,
        "scheduler": "optimal",
        "seed": 0,
        "default_defect_probability": 0.05,
        "jitter_low": 0.9,
        "jitter_high": 1.1,
    },
    "workload": {
        "test_count": 50,
        "agent_count": 3,
        "duration_min": 1.0,
        "duration_max": 10.0,
        "compatibility_density": 0.8,
        "obligatory_fraction": 0.1,
        "defect_min": 0.01,
        "defect_max": 0.2,
        "budget": 60.0,
        "seed": 0,
    },
}


@dataclass(frozen=True)
class SolverSettings:
    time_budget_ms: int
    staleness_cap: int
    diversity: bool
    backend: str
    nodes_per_ms: int | None


@dataclass(frozen=True)
class SimulationSettings:
    cycles: int
    scheduler: SchedulerKind
    seed: int
    default_defect_probability: float
    jitter_low: float
    jitter_high: float


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration, precedence defaults < file < flags."""

    priority: PriorityWeights
    solver: SolverSettings
    simulation: SimulationSettings
    workload: WorkloadSpec


def parse_config(path: str | Path | None, overrides: Mapping[str, Any] | None = None) -> RunConfig:
    """Resolve configuration from defaults, an optional YAML file, and overrides.

    Override keys are dotted, e.g. "solver.time_budget_ms". Unknown sections
    or keys raise UnknownKeyError; values of the wrong type raise
    TypeMismatchError; a missing file raises MissingFileError.
    """
    merged = {section: dict(values) for section, values in DEFAULTS.items()}

    if path is not None:
        path = Path(path)
        if not path.exists():
            raise MissingFileError(f"config file not found: {path}")
        loaded = yaml.safe_load(path.read_text(encoding="utf-8"))
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise TypeMismatchError(f"config root must be a mapping, got {type(loaded).__name__}")
        for section, values in loaded.items():
            if section not in merged:
                raise UnknownKeyError(f"unknown config section: {section!r}")
            if not isinstance(values, dict):
                raise TypeMismatchError(f"section {section!r} must be a mapping")
            for key, value in values.items():
                _set(merged, section, key, value)

    for dotted, value in (overrides or {}).items():
        section, _, key = dotted.partition(".")
        if not key or section not in merged:
            raise UnknownKeyError(f"unknown config key: {dotted!r}")
        _set(merged, section, key, value)

    return _build(merged)


def _set(merged: dict, section: str, key: str, value: Any) -> None:
    if key not in DEFAULTS[section]:
        raise UnknownKeyError(f"unknown config key: {section}.{key}")
    merged[section][key] = value


def _section(merged: dict, section: str, cls: type) -> Any:
    """Type-check one merged section against its settings dataclass."""
    try:
        return codec.decode_fields(cls, merged[section])
    except codec.DecodeError as exc:
        raise TypeMismatchError(f"{section}.{exc}") from None


def _build(merged: dict) -> RunConfig:
    weights = _section(merged, "priority", PriorityWeights)
    weights.validate()
    solver = _section(merged, "solver", SolverSettings)
    if solver.time_budget_ms < 1:
        raise TypeMismatchError("solver.time_budget_ms must be >= 1")
    if solver.staleness_cap < 1:
        raise TypeMismatchError("solver.staleness_cap must be >= 1")
    if solver.backend not in ("auto", "numba", "python"):
        raise TypeMismatchError(
            f"solver.backend must be auto, numba, or python, got {solver.backend!r}"
        )
    simulation = _section(merged, "simulation", SimulationSettings)
    if simulation.cycles < 1:
        raise TypeMismatchError("simulation.cycles must be >= 1")
    workload = _section(merged, "workload", WorkloadSpec)
    return RunConfig(priority=weights, solver=solver, simulation=simulation, workload=workload)
