"""Layered configuration: documented defaults, optional YAML file, flag overrides."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

import yaml

from cisched import codec
from cisched.kernels import resolve_backend
from cisched.priority import PriorityWeights
from cisched.simulator import SchedulerKind
from cisched.workload import WorkloadSpec


class UnknownKeyError(Exception):
    """A config key nobody defines, most likely a typo."""


class TypeMismatchError(ValueError):
    """A config value of the wrong type or out of range."""


class MissingFileError(Exception):
    """The named config file does not exist."""


@dataclass(frozen=True)
class SolverSettings:
    time_budget_ms: int = 2000
    staleness_cap: int = 8
    diversity: bool = True
    backend: str = "auto"
    nodes_per_ms: int | None = None

    def __post_init__(self) -> None:
        if self.time_budget_ms < 1:
            raise ValueError("time_budget_ms must be >= 1")
        if self.staleness_cap < 1:
            raise ValueError("staleness_cap must be >= 1")
        resolve_backend(self.backend)
        if self.nodes_per_ms is not None and self.nodes_per_ms < 1:
            raise ValueError("nodes_per_ms must be >= 1")


@dataclass(frozen=True)
class SimulationSettings:
    cycles: int = 1
    scheduler: SchedulerKind = SchedulerKind.OPTIMAL
    seed: int = 0
    default_defect_probability: float = 0.05
    jitter_low: float = 0.9
    jitter_high: float = 1.1

    def __post_init__(self) -> None:
        if self.cycles < 1:
            raise ValueError("cycles must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be in [0, 2**64)")
        if not 0.0 <= self.default_defect_probability <= 1.0:
            raise ValueError("default_defect_probability must be in [0, 1]")
        if not 0 < self.jitter_low <= self.jitter_high:
            raise ValueError("jitter_low must be in (0, jitter_high]")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration, precedence defaults < file < flags."""

    priority: PriorityWeights
    solver: SolverSettings
    simulation: SimulationSettings
    workload: WorkloadSpec


# The built-in defaults; the config file's keys are exactly these fields.
DEFAULTS = RunConfig(
    PriorityWeights(),
    SolverSettings(),
    SimulationSettings(),
    WorkloadSpec(
        test_count=50,
        agent_count=3,
        duration_min=1.0,
        duration_max=10.0,
        compatibility_density=0.8,
        obligatory_fraction=0.1,
        defect_min=0.01,
        defect_max=0.2,
        budget=60.0,
        seed=0,
    ),
)


def parse_config(path: str | Path | None, overrides: Mapping[str, Any] | None = None) -> RunConfig:
    """Resolve configuration from defaults, an optional YAML file, and overrides.

    Override keys are dotted, e.g. "solver.time_budget_ms". Unknown sections
    or keys raise UnknownKeyError; values of the wrong type or out of range
    raise TypeMismatchError, naming the section and key; a missing file
    raises MissingFileError.
    """
    merged = codec.encode_fields(DEFAULTS)

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
                if key not in merged[section]:
                    raise UnknownKeyError(f"unknown config key: {section}.{key}")
                merged[section][key] = value

    for dotted, value in (overrides or {}).items():
        section, _, key = dotted.partition(".")
        if not key or section not in merged:
            raise UnknownKeyError(f"unknown config key: {dotted!r}")
        if key not in merged[section]:
            raise UnknownKeyError(f"unknown config key: {dotted}")
        merged[section][key] = value

    try:
        return codec.decode_fields(RunConfig, merged)
    except codec.DecodeError as exc:
        raise TypeMismatchError(str(exc)) from None
