"""Synthetic repository generation: determinism, feasibility, serialization."""

from __future__ import annotations

import pytest

from cisched import (
    HistoryStore,
    PriorityWeights,
    WorkloadSpec,
    build_instance,
    generate_workload,
    load_workload,
    prioritize_all,
    save_workload,
    schedule_optimal,
    validate_repository,
)
from cisched.codec import decode, encode


def spec(**overrides) -> WorkloadSpec:
    base = dict(
        test_count=40,
        agent_count=3,
        duration_min=0.5,
        duration_max=5.0,
        compatibility_density=0.7,
        obligatory_fraction=0.3,
        defect_min=0.01,
        defect_max=0.2,
        budget=30.0,
        seed=123,
    )
    base.update(overrides)
    return WorkloadSpec(**base)


def test_generation_is_deterministic():
    first = generate_workload(spec())
    second = generate_workload(spec())
    assert first == second
    different = generate_workload(spec(seed=124))
    assert different[0] != first[0]


def test_generated_repository_is_valid():
    tests, agents, model = generate_workload(spec())
    assert len(tests) == 40
    assert len(agents) == 3
    assert validate_repository(tests, agents).ok
    for t in tests:
        assert t.compatible_agents
        assert spec().duration_min <= t.avg_duration <= spec().duration_max
        assert 0.0 <= t.static_priority <= 1.0
        assert spec().defect_min <= model.defect_probabilities[t.id] <= spec().defect_max
    assert model.seed == 123


def test_generated_obligatory_set_is_schedulable():
    # Heavy obligatory pressure against a tight budget: the generator only
    # marks tests it could reserve room for, so scheduling must succeed.
    for seed in range(5):
        tests, agents, _ = generate_workload(
            spec(obligatory_fraction=0.9, budget=12.0, seed=seed)
        )
        ranked = prioritize_all(tests, HistoryStore(), PriorityWeights(), 0)
        instance = build_instance(ranked, agents, {}, 0, solver_time_budget_ms=200)
        schedule = schedule_optimal(instance)
        obligatory = {t.id for t in tests if t.obligatory}
        assert obligatory <= schedule.assigned_tests()


def test_spec_validation():
    with pytest.raises(ValueError):
        spec(test_count=-1)
    with pytest.raises(ValueError):
        spec(agent_count=0)
    with pytest.raises(ValueError):
        spec(duration_min=0.0)
    with pytest.raises(ValueError):
        spec(duration_min=3.0, duration_max=2.0)
    with pytest.raises(ValueError):
        spec(compatibility_density=0.0)
    with pytest.raises(ValueError):
        spec(obligatory_fraction=1.5)
    with pytest.raises(ValueError):
        spec(defect_min=0.5, defect_max=0.2)
    with pytest.raises(ValueError):
        spec(budget=0.0)
    with pytest.raises(ValueError):
        spec(seed=-1)


def test_workload_round_trip(tmp_path):
    original = spec()
    assert decode(WorkloadSpec, encode(original)) == original
    path = tmp_path / "workload.json"
    save_workload(original, path)
    assert load_workload(path) == original
    with pytest.raises(ValueError):
        decode(WorkloadSpec, {**encode(original), "shape": "oval"})
    doc = encode(original)
    del doc["budget"]
    with pytest.raises(ValueError):
        decode(WorkloadSpec, doc)
    with pytest.raises(ValueError, match="test_count"):
        decode(WorkloadSpec, {**encode(original), "test_count": 5.5})
