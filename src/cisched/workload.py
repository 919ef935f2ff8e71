"""Synthetic workload generation: seeded, valid, and feasible by construction."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from cisched import codec
from cisched.domain import TestAgent, TestCase
from cisched.execution import OutcomeModel


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters for generating a random test repository."""

    test_count: int
    agent_count: int
    duration_min: float
    duration_max: float
    compatibility_density: float
    obligatory_fraction: float
    defect_min: float
    defect_max: float
    budget: float
    seed: int

    def __post_init__(self) -> None:
        if self.test_count < 0:
            raise ValueError("test_count must be >= 0")
        if self.agent_count < 1:
            raise ValueError("agent_count must be >= 1")
        if not 0 < self.duration_min <= self.duration_max < math.inf:
            raise ValueError("duration bounds must satisfy 0 < min <= max < inf")
        if not 0 < self.compatibility_density <= 1:
            raise ValueError("compatibility_density must be in (0, 1]")
        if not 0 <= self.obligatory_fraction <= 1:
            raise ValueError("obligatory_fraction must be in [0, 1]")
        if not 0 <= self.defect_min <= self.defect_max <= 1:
            raise ValueError("defect bounds must satisfy 0 <= min <= max <= 1")
        if not 0 < self.budget < math.inf:
            raise ValueError("budget must be finite and > 0")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


def generate_workload(spec: WorkloadSpec) -> tuple[list[TestCase], list[TestAgent], OutcomeModel]:
    """Build a repository and outcome model from a WorkloadSpec, same seed same output.

    Every test gets at least one compatible agent. A test becomes obligatory
    only if its duration still first-fits into a running per-agent
    reservation, so the obligatory set as a whole is always schedulable.
    """
    import numpy as np  # imported here, so that importing cisched does not load numpy

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(spec.seed)))
    agents = [
        TestAgent(id=f"agent{j:02d}", budget=spec.budget) for j in range(spec.agent_count)
    ]

    tests: list[TestCase] = []
    defect_probabilities: dict[str, float] = {}
    reserved = [0.0] * spec.agent_count
    for i in range(spec.test_count):
        # Draw order is part of the format: changing it changes every
        # seeded workload.
        duration = float(round(rng.uniform(spec.duration_min, spec.duration_max), 3))
        static_priority = float(round(rng.uniform(0.0, 1.0), 3))
        mask = rng.random(spec.agent_count) < spec.compatibility_density
        if not mask.any():
            mask[rng.integers(spec.agent_count)] = True
        compatible = [j for j in range(spec.agent_count) if mask[j]]
        obligatory = False
        if rng.random() < spec.obligatory_fraction:
            for j in compatible:
                if reserved[j] + duration <= spec.budget:
                    reserved[j] += duration
                    obligatory = True
                    break
        defect_probabilities[f"test{i:04d}"] = float(
            round(rng.uniform(spec.defect_min, spec.defect_max), 4)
        )
        tests.append(
            TestCase(
                id=f"test{i:04d}",
                avg_duration=duration,
                static_priority=static_priority,
                compatible_agents=frozenset(agents[j].id for j in compatible),
                obligatory=obligatory,
            )
        )
    model = OutcomeModel(defect_probabilities=defect_probabilities, seed=spec.seed)
    return tests, agents, model


def load_workload(path: str | Path) -> WorkloadSpec:
    """Load a workload spec; people write these by hand, so the version may be omitted."""
    return codec.load(WorkloadSpec, path, version_optional=True)


def save_workload(spec: WorkloadSpec, path: str | Path) -> None:
    codec.save(spec, path)
