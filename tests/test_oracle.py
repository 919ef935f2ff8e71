"""Exhaustive reference scheduler: guard rails and hand-checked optima."""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from cisched import (
    InfeasibleError,
    InstanceTooLargeError,
    ObjectiveVector,
    schedule_oracle,
)
from cisched.scheduling import PackedInstance

from helpers import make_agent, make_instance, make_test, trap_instance


def brute_force(instance):
    """Independent enumeration: try every test-to-slot map directly."""
    tests = [p.test for p in instance.prioritized]
    agents = list(instance.agents)
    packed = PackedInstance(instance)
    best = None
    for combo in product(range(len(agents) + 1), repeat=len(tests)):
        loads = [0.0] * len(agents)
        ok = True
        for t, slot in zip(tests, combo):
            if slot == 0:
                if t.obligatory:
                    ok = False
                    break
                continue
            agent = agents[slot - 1]
            if agent.id not in t.compatible_agents:
                ok = False
                break
            loads[slot - 1] += t.avg_duration
        if not ok:
            continue
        if any(load > agent.budget + 1e-9 for load, agent in zip(loads, agents)):
            continue
        assign_by_id = {
            t.id: agents[slot - 1].id for t, slot in zip(tests, combo) if slot
        }
        assign = np.array(
            [
                packed.agent_ids.index(assign_by_id[t.id]) if t.id in assign_by_id else -1
                for t in tests
            ],
            dtype=np.int64,
        )
        units = packed.objective_units(assign)
        key = (units, tuple(sorted(assign_by_id.items())))
        if best is None or units > best[0] or (units == best[0] and key[1] < best[1]):
            best = (units, key[1])
    return best


def test_oracle_rejects_oversized_instances():
    big = make_instance(
        [(make_test(f"t{i:02d}"), 0.5) for i in range(13)], [make_agent("a0")]
    )
    with pytest.raises(InstanceTooLargeError):
        schedule_oracle(big)
    wide = make_instance(
        [(make_test("t0"), 0.5)], [make_agent(f"a{j}") for j in range(4)]
    )
    with pytest.raises(InstanceTooLargeError):
        schedule_oracle(wide)


def test_oracle_solves_trap_exactly():
    got = schedule_oracle(trap_instance())
    assert got.assignments == {"a0": ("tb", "tc")}
    assert got.objective == ObjectiveVector(0.8, 2.0, 10.0)


def test_oracle_reports_infeasible_ids():
    must = make_test("t0", duration=20.0, obligatory=True)
    instance = make_instance([(must, 0.5)], [make_agent("a0", budget=10.0)])
    with pytest.raises(InfeasibleError) as err:
        schedule_oracle(instance)
    assert err.value.test_ids == ("t0",)


def test_oracle_agrees_with_direct_enumeration():
    t0 = make_test("t0", duration=4.0, agents=("a0", "a1"))
    t1 = make_test("t1", duration=3.0, agents=("a0",), obligatory=True)
    t2 = make_test("t2", duration=5.0, agents=("a1",))
    instance = make_instance(
        [(t0, 0.7), (t1, 0.2), (t2, 0.6)],
        [make_agent("a0", budget=7.0), make_agent("a1", budget=5.0)],
        pair_last={"t0": {"a0": 2}, "t2": {"a1": 3}},
        cycle=4,
    )
    got = schedule_oracle(instance)
    units, pairs = brute_force(instance)
    want = ObjectiveVector.from_units(*units, staleness_cap=instance.staleness_cap)
    assert got.objective == want
    assert sorted(got.assigned_pairs()) == list(pairs)


def test_oracle_empty_instance():
    got = schedule_oracle(make_instance([], [make_agent("a0")]))
    assert got.assignments == {"a0": ()}
    assert got.objective == ObjectiveVector(0.0, 0.0, 0.0)
