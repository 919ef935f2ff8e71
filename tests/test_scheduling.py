"""Scheduling types: exact arithmetic, instance checks, greedy baseline, obligatory packing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cisched import (
    ExecutionRecord,
    HistoryStore,
    InfeasibleError,
    ObjectiveVector,
    Outcome,
    OutcomeModel,
    PrioritizedTest,
    PriorityWeights,
    Schedule,
    SchedulerKind,
    SchedulingInstance,
    SimulationConfig,
    build_instance,
    check_schedule,
    run_simulation,
    schedule_greedy,
    schedule_oracle,
    solve_detailed,
)
from cisched.kernels import density_order
from cisched.scheduling import (
    PRIORITY_UNIT,
    TIME_UNIT,
    PackedInstance,
    ensure_obligatory_coverage,
    pack_obligatory,
    pair_staleness_units,
    quantize_priority,
    quantize_seconds,
)

from helpers import make_agent, make_instance, make_test, random_instance, trap_instance


def test_quantization_is_exact_for_reported_precision():
    # Priorities carry 9 fractional digits, durations 6 (microseconds).
    assert quantize_priority(0.5) == 500_000_000
    assert quantize_priority(1.0) == PRIORITY_UNIT
    assert quantize_priority(0.123456789) == 123_456_789
    assert quantize_seconds(1.5) == 1_500_000
    assert quantize_seconds(0.000001) == 1
    assert quantize_seconds(3600.0) == 3_600 * TIME_UNIT


def test_objective_vector_orders_lexicographically():
    a = ObjectiveVector(1.0, 0.0, 0.0)
    b = ObjectiveVector(0.9, 5.0, 5.0)
    c = ObjectiveVector(1.0, 1.0, 0.0)
    d = ObjectiveVector(1.0, 1.0, 2.0)
    assert a > b
    assert c > a
    assert d > c
    assert ObjectiveVector(1.0, 1.0, 2.0) == d


def test_objective_vector_from_units():
    got = ObjectiveVector.from_units(800_000_000, 16, 10_000_000, staleness_cap=8)
    assert got == ObjectiveVector(0.8, 2.0, 10.0)


def test_pair_staleness_values():
    pair_last = {"t0": {"a0": 3}}

    def staleness(t_id, a_id, cycle):
        last = pair_last.get(t_id, {}).get(a_id)
        return pair_staleness_units([last], cycle, 8, True)[0] / 8

    assert staleness("t0", "a0", 4) == pytest.approx(1 / 8)
    assert staleness("t0", "a0", 3) == 0.0
    assert staleness("t0", "a0", 20) == 1.0
    assert staleness("t0", "a1", 4) == 1.0
    assert pair_staleness_units([3, None], 4, 8, True) == [1, 8]
    assert pair_staleness_units([3, None], 4, 8, False) == [0, 0]


def test_instance_validation():
    t0 = make_test("t0")
    agent = make_agent("a0")
    good = make_instance([(t0, 0.5)], [agent])
    assert good.prioritized[0].priority == 0.5

    with pytest.raises(ValueError):
        SchedulingInstance(
            prioritized=(PrioritizedTest(t0, 0.2), PrioritizedTest(make_test("t1"), 0.8)),
            agents=(agent,),
            pair_last={},
            current_cycle=0,
        )
    with pytest.raises(ValueError):
        SchedulingInstance(
            prioritized=(PrioritizedTest(t0, 0.5), PrioritizedTest(t0, 0.5)),
            agents=(agent,),
            pair_last={},
            current_cycle=0,
        )
    with pytest.raises(ValueError):
        SchedulingInstance(
            prioritized=(PrioritizedTest(t0, 0.5),),
            agents=(agent, agent),
            pair_last={},
            current_cycle=0,
        )
    with pytest.raises(ValueError):
        SchedulingInstance(
            prioritized=(PrioritizedTest(t0, 0.5),),
            agents=(agent,),
            pair_last={"ghost": {"a0": 0}},
            current_cycle=0,
        )
    with pytest.raises(ValueError):
        make_instance([(t0, 0.5)], [agent], time_budget_ms=0)
    with pytest.raises(ValueError):
        make_instance([(t0, 0.5)], [agent], staleness_cap=0)


def test_build_instance_drops_stale_pair_keys():
    instance = build_instance(
        [PrioritizedTest(make_test("t0"), 0.5)],
        [make_agent("a0")],
        {"t0": {"a0": 1, "gone": 3}, "gone": {"a0": 2}},
        current_cycle=4,
    )
    assert instance.pair_last == {"t0": {"a0": 1}}


def test_build_instance_regroups_a_tuple_keyed_history_and_rejects_other_shapes():
    args = ([PrioritizedTest(make_test("t0", agents=("a0", "a1")), 0.5)], [make_agent("a0"), make_agent("a1")])
    flat = {("t0", "a0"): 1, ("t0", "a1"): 2, ("t0", "gone"): 3, ("gone", "a0"): 2}
    instance = build_instance(*args, flat, current_cycle=4)
    assert instance.pair_last == {"t0": {"a0": 1, "a1": 2}}
    assert instance == build_instance(*args, {"t0": {"a0": 1, "a1": 2}}, current_cycle=4)
    for bad in ({"t0": {"a0": 1}, ("t0", "a1"): 2}, {1: {"a0": 1}}, {frozenset(("t0", "a0")): 1}):
        with pytest.raises(TypeError):
            build_instance(*args, bad, current_cycle=4)


def test_built_instance_keeps_its_pair_history_after_add_cycle():
    # A built instance holds copies of the store's rows: later cycles that
    # rerun one of its pairs leave it as it was built.
    store = HistoryStore()
    store.add_cycle([ExecutionRecord("t0", "a0", 0, Outcome.PASS, 1.0)])
    t0 = make_test("t0", agents=("a0", "a1"))
    instance = build_instance(
        [PrioritizedTest(t0, 0.5)], [make_agent("a0"), make_agent("a1")], store.pair_last, 1
    )
    store.add_cycle([
        ExecutionRecord("t0", "a0", 1, Outcome.PASS, 1.0),
        ExecutionRecord("t1", "a1", 1, Outcome.PASS, 1.0),
    ])
    assert store.pair_last == {"t0": {"a0": 1}, "t1": {"a1": 1}}
    assert instance.pair_last == {"t0": {"a0": 0}}
    assert dict(instance.pair_last_cycle) == {("t0", "a0"): 0}


def test_pair_last_cycle_is_a_view_no_scheduler_reads(monkeypatch):
    rng = np.random.Generator(np.random.PCG64(11))
    instances = [random_instance(rng, max_tests=6) for _ in range(30)]
    for instance in instances:
        flat = {
            (t_id, a_id): c
            for t_id, row in instance.pair_last.items()
            for a_id, c in row.items()
        }
        view = instance.pair_last_cycle
        assert dict(view) == flat
        assert len(view) == len(flat)
        assert view.get(("ghost", "a0")) is None
        for p in instance.prioritized:
            assert view.get((p.test.id, "ghost")) is None

    def unread(self):
        raise AssertionError("pair_last_cycle was read")

    monkeypatch.setattr(SchedulingInstance, "pair_last_cycle", property(unread))
    tests = [make_test(f"t{i}", duration=2.0, agents=("a0", "a1")) for i in range(4)]
    agents = [make_agent("a0", budget=5.0), make_agent("a1", budget=5.0)]
    outcomes = OutcomeModel({}, default_probability=0.2, seed=9)
    for scheduler in SchedulerKind:
        config = SimulationConfig(3, scheduler, PriorityWeights(), outcomes, solver_time_budget_ms=50)
        assert len(run_simulation(config, tests, agents)) == 3
    checked = 0
    for instance in instances:
        schedule_greedy(instance)
        try:
            solve_detailed(instance)
            schedule_oracle(instance)
        except InfeasibleError:
            continue
        checked += 1
    assert checked >= 10


def test_schedule_accessors():
    schedule = Schedule(
        assignments={"a0": ("t1", "t0"), "a1": ()},
        objective=ObjectiveVector(1.0, 2.0, 3.0),
    )
    assert schedule.size == 2
    assert schedule.assigned_tests() == {"t0", "t1"}
    assert ("t1", "a0") in schedule.assigned_pairs()


def test_check_schedule_catches_violations():
    t0 = make_test("t0", duration=6.0)
    t1 = make_test("t1", duration=5.0)
    instance = make_instance([(t0, 0.6), (t1, 0.5)], [make_agent("a0", budget=10.0)])

    check_schedule(
        Schedule({"a0": ("t0",)}, ObjectiveVector(0.6, 1.0, 6.0)), instance
    )
    with pytest.raises(ValueError):
        check_schedule(Schedule({"ghost": ()}, ObjectiveVector(0, 0, 0)), instance)
    with pytest.raises(ValueError):
        check_schedule(
            Schedule({"a0": ("spooky",)}, ObjectiveVector(0, 0, 0)), instance
        )
    with pytest.raises(ValueError):
        check_schedule(
            Schedule({"a0": ("t0", "t0")}, ObjectiveVector(0, 0, 0)), instance
        )
    with pytest.raises(ValueError):
        check_schedule(
            Schedule({"a0": ("t0", "t1")}, ObjectiveVector(0, 0, 0)), instance
        )

    gated = make_instance([(t0, 0.6)], [make_agent("a0"), make_agent("a1")])
    with pytest.raises(ValueError):
        check_schedule(
            Schedule({"a0": (), "a1": ("t0",)}, ObjectiveVector(0, 0, 0)), gated
        )


def test_greedy_first_fill_strands_budget_on_trap():
    instance = trap_instance()
    got = schedule_greedy(instance)
    assert got.assignments == {"a0": ("ta",)}
    assert got.objective == ObjectiveVector(0.5, 1.0, 6.0)


def test_greedy_scans_agents_in_input_order():
    # Both agents can hold both tests; first agent fills first.
    t0 = make_test("t0", duration=4.0, agents=("a0", "a1"))
    t1 = make_test("t1", duration=4.0, agents=("a0", "a1"))
    instance = make_instance(
        [(t0, 0.9), (t1, 0.8)],
        [make_agent("a1", budget=10.0), make_agent("a0", budget=10.0)],
    )
    got = schedule_greedy(instance)
    assert got.assignments == {"a1": ("t0", "t1"), "a0": ()}


def test_greedy_ignores_obligatory_markers():
    # The baseline takes the higher-priority filler even though it crowds
    # out a mandatory test; mandatory handling belongs to the exact solver.
    filler = make_test("t0", duration=10.0)
    must = make_test("t1", duration=10.0, obligatory=True)
    instance = make_instance([(filler, 0.9), (must, 0.1)], [make_agent("a0", budget=10.0)])
    got = schedule_greedy(instance)
    assert got.assignments == {"a0": ("t0",)}


def test_greedy_respects_compatibility_and_budget():
    t0 = make_test("t0", duration=8.0, agents=("a1",))
    t1 = make_test("t1", duration=8.0, agents=("a0", "a1"))
    instance = make_instance(
        [(t0, 0.9), (t1, 0.8)], [make_agent("a0"), make_agent("a1")]
    )
    got = schedule_greedy(instance)
    assert got.assignments == {"a0": ("t1",), "a1": ("t0",)}
    check_schedule(got, instance)


def test_greedy_objective_counts_pair_staleness():
    # One test, one agent, ran there last cycle: staleness 1/8.
    t0 = make_test("t0", duration=1.0)
    instance = make_instance(
        [(t0, 0.5)], [make_agent("a0")], pair_last={"t0": {"a0": 4}}, cycle=5
    )
    got = schedule_greedy(instance)
    assert got.objective == ObjectiveVector(0.5, 1 / 8, 1.0)


def test_diversity_off_zeroes_the_term():
    t0 = make_test("t0", duration=1.0)
    instance = make_instance([(t0, 0.5)], [make_agent("a0")], diversity=False)
    got = schedule_greedy(instance)
    assert got.objective.diversity == 0.0


def test_packed_instance_objective_units_match_float_view():
    rng = np.random.Generator(np.random.PCG64(7))
    for _ in range(20):
        instance = random_instance(rng)
        packed = PackedInstance(instance)
        got = schedule_greedy(instance)
        assign = np.full(packed.n, -1, dtype=np.int64)
        col = {a: j for j, a in enumerate(packed.agent_ids)}
        row = {t: i for i, t in enumerate(packed.test_ids)}
        for agent_id, test_ids in got.assignments.items():
            for t in test_ids:
                assign[row[t]] = col[agent_id]
        units = packed.objective_units(assign)
        rebuilt = ObjectiveVector.from_units(*units, staleness_cap=instance.staleness_cap)
        assert rebuilt == got.objective


def test_pack_obligatory_places_constrained_tests_first():
    # t1 can only run on "big", so it must claim that budget before the
    # flexible t0 does.
    t0 = make_test("t0", duration=6.0, agents=("big", "small"), obligatory=True)
    t1 = make_test("t1", duration=6.0, agents=("big",), obligatory=True)
    instance = make_instance(
        [(t0, 0.9), (t1, 0.8)],
        [make_agent("big", budget=6.0), make_agent("small", budget=6.0)],
    )
    assign = pack_obligatory(PackedInstance(instance))
    assert assign is not None
    packed = PackedInstance(instance)
    names = {packed.test_ids[i]: packed.agent_ids[assign[i]] for i in range(2)}
    assert names == {"t0": "small", "t1": "big"}


def test_ensure_obligatory_coverage_reports_individually_unplaceable_ids():
    # t0 and t2 exceed every budget on their own; only they are reported,
    # even though t1 is also obligatory.
    t2 = make_test("t2", duration=30.0, obligatory=True)
    t0 = make_test("t0", duration=20.0, obligatory=True)
    t1 = make_test("t1", duration=6.0, obligatory=True)
    instance = make_instance(
        [(t2, 0.9), (t0, 0.8), (t1, 0.7)], [make_agent("a0", budget=10.0)]
    )
    with pytest.raises(InfeasibleError) as err:
        ensure_obligatory_coverage(PackedInstance(instance))
    assert err.value.test_ids == ("t0", "t2")


def test_ensure_obligatory_coverage_reports_all_ids_on_joint_conflict():
    # t1 and t2 each fit alone but not together; the conflict has no single
    # culprit, so both ids surface.
    t1 = make_test("t1", duration=6.0, obligatory=True)
    t2 = make_test("t2", duration=6.0, obligatory=True)
    instance = make_instance(
        [(t1, 0.9), (t2, 0.8)], [make_agent("a0", budget=10.0)]
    )
    with pytest.raises(InfeasibleError) as err:
        ensure_obligatory_coverage(PackedInstance(instance))
    assert err.value.test_ids == ("t1", "t2")


def test_obligatory_packing_is_not_bounded_by_the_recursion_limit():
    # Fillers outrank 1,200 obligatory tests, so first-fill drops 400 of
    # them and the solver reseeds from a packing deeper than Python's
    # default recursion limit.
    agents = [make_agent(f"a{j}", budget=400.0) for j in range(4)]
    agent_ids = tuple(a.id for a in agents)
    entries = [
        (make_test(f"o{i:04d}", duration=1.0, agents=agent_ids, obligatory=True), 0.0)
        for i in range(1200)
    ] + [(make_test(f"f{i:04d}", duration=1.0, agents=agent_ids), 1.0) for i in range(800)]
    instance = make_instance(entries, agents)
    packed = PackedInstance(instance)
    assign = ensure_obligatory_coverage(packed)
    assert sum(1 for i in range(packed.n) if packed.oblig[i] and assign[i] >= 0) == 1200
    schedule, _ = solve_detailed(instance, backend="python", node_budget=1)
    assert {f"o{i:04d}" for i in range(1200)} <= schedule.assigned_tests()


def test_ensure_obligatory_coverage_passes_tight_fits():
    t0 = make_test("t0", duration=5.0, obligatory=True)
    t1 = make_test("t1", duration=5.0, obligatory=True)
    instance = make_instance(
        [(t0, 0.9), (t1, 0.8)], [make_agent("a0", budget=10.0)]
    )
    assign = ensure_obligatory_coverage(PackedInstance(instance))
    assert sorted(assign) == [0, 0]


def test_infeasible_error_sorts_ids():
    err = InfeasibleError(["tz", "ta"])
    assert err.test_ids == ("ta", "tz")
    assert "ta, tz" in str(err)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_greedy_schedules_are_always_valid(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    instance = random_instance(rng)
    got = schedule_greedy(instance)
    check_schedule(got, instance)
    # Priority-descending order within each agent's list.
    priorities = {p.test.id: p.priority for p in instance.prioritized}
    for tests in got.assignments.values():
        values = [priorities[t] for t in tests]
        assert values == sorted(values, reverse=True)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_density_order_is_exact_on_ties(seed):
    # Cross-multiplied integer densities: equal ratios keep index order.
    # Test 1 is denser than test 0 by less than one float64 ulp, and the
    # zero-duration test 2 sorts first.
    prio = [10**17, 2 * 10**17 + 1, 1]
    dur = [10**17, 2 * 10**17, 0]
    assert prio[0] / dur[0] == prio[1] / dur[1]
    assert density_order(prio, dur) == [2, 1, 0]
    rng = np.random.Generator(np.random.PCG64(seed))
    instance = random_instance(rng, min_tests=2)
    packed = PackedInstance(instance)
    order = list(density_order(packed.prio_u, packed.dur_us))
    for earlier, later in zip(order, order[1:]):
        lhs = int(packed.prio_u[earlier]) * int(packed.dur_us[later])
        rhs = int(packed.prio_u[later]) * int(packed.dur_us[earlier])
        assert lhs > rhs or (lhs == rhs and earlier < later)
