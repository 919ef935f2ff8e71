"""Branch-and-bound solver: exactness, anytime contract, tie-breaks, traversal."""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import replace

import numpy as np
import pytest

import cisched.solver
from cisched import (
    HistoryStore,
    InfeasibleError,
    ObjectiveVector,
    PriorityWeights,
    WorkloadSpec,
    build_instance,
    generate_workload,
    prioritize_all,
    schedule_greedy,
    schedule_optimal,
    schedule_oracle,
    solve_detailed,
)
from cisched.kernels import resolve_backend
from cisched.scheduling import PackedInstance

from helpers import (
    make_agent,
    make_instance,
    make_test,
    objective_tuple,
    random_instance,
    trap_instance,
    zero_tie_instance,
)

def test_solver_beats_first_fill_on_trap():
    instance = trap_instance()
    got, stats = solve_detailed(instance)
    assert got.assignments == {"a0": ("tb", "tc")}
    assert got.objective == ObjectiveVector(0.8, 2.0, 10.0)
    assert stats.completed


def test_schedule_optimal_equals_detailed():
    instance = trap_instance()
    assert schedule_optimal(instance).objective == ObjectiveVector(0.8, 2.0, 10.0)


def test_solver_covers_obligatory_that_greedy_drops():
    filler = make_test("t0", duration=10.0)
    must = make_test("t1", duration=10.0, obligatory=True)
    instance = make_instance(
        [(filler, 0.9), (must, 0.1)], [make_agent("a0", budget=10.0)]
    )
    greedy = schedule_greedy(instance)
    assert greedy.assigned_tests() == {"t0"}
    got, _ = solve_detailed(instance)
    assert got.assigned_tests() == {"t1"}
    assert got.objective.total_priority == pytest.approx(0.1)


def test_solver_raises_on_impossible_obligatory():
    # t0 fits no agent even alone, so it alone is the reported culprit.
    t0 = make_test("t0", duration=20.0, obligatory=True)
    t1 = make_test("t1", duration=6.0, obligatory=True)
    t2 = make_test("t2", duration=6.0, obligatory=True)
    instance = make_instance(
        [(t0, 0.9), (t1, 0.8), (t2, 0.7)], [make_agent("a0", budget=10.0)]
    )
    with pytest.raises(InfeasibleError) as err:
        solve_detailed(instance)
    assert err.value.test_ids == ("t0",)

    # Joint conflicts have no single culprit: every obligatory id surfaces.
    conflict = make_instance(
        [(t1, 0.8), (t2, 0.7)], [make_agent("a0", budget=10.0)]
    )
    with pytest.raises(InfeasibleError) as err:
        solve_detailed(conflict)
    assert err.value.test_ids == ("t1", "t2")


@pytest.mark.parametrize(
    "tests, agents, want",
    [
        ([], [make_agent("a0")], {"a0": ()}),
        ([(make_test("t0"), 0.5)], [], {}),
        ([], [], {}),
    ],
    ids=["no-tests", "no-agents", "neither"],
)
def test_empty_instances(tests, agents, want):
    # The kernel finishes these searches itself, in one node or more.
    instance = make_instance(tests, agents)
    got, stats = solve_detailed(instance)
    assert got.assignments == want
    assert got.objective == ObjectiveVector(0.0, 0.0, 0.0)
    assert stats.completed
    assert stats.nodes >= 1
    oracle = schedule_oracle(instance)
    assert (got.assignments, got.objective) == (oracle.assignments, oracle.objective)


def test_no_agents_with_obligatory_is_infeasible():
    instance = make_instance([(make_test("t0", obligatory=True), 0.5)], [])
    with pytest.raises(InfeasibleError) as err:
        solve_detailed(instance)
    assert err.value.test_ids == ("t0",)


def test_single_assignment_tie_breaks_on_agent_id():
    # Both agents give the same objective; the smaller (test, agent) pair
    # list must win, here the lexicographically first agent.
    t0 = make_test("t0", agents=("aa", "ab"))
    instance = make_instance([(t0, 0.5)], [make_agent("ab"), make_agent("aa")])
    got, _ = solve_detailed(instance)
    assert got.assignments == {"aa": ("t0",), "ab": ()}
    assert got.objective == schedule_oracle(instance).objective
    assert got.assignments == schedule_oracle(instance).assignments


def test_matching_tie_breaks_on_pair_list():
    # Two equal tests, two equal agents: both perfect matchings share the
    # objective, so the smallest sorted pair list decides.
    t0 = make_test("t0", duration=5.0, agents=("a0", "a1"))
    t1 = make_test("t1", duration=5.0, agents=("a0", "a1"))
    instance = make_instance(
        [(t0, 0.5), (t1, 0.5)],
        [make_agent("a0", budget=5.0), make_agent("a1", budget=5.0)],
    )
    got, _ = solve_detailed(instance)
    assert got.assignments == {"a0": ("t0",), "a1": ("t1",)}
    assert got.assignments == schedule_oracle(instance).assignments


def test_diversity_drives_rotation():
    # Same priorities every cycle; the agent the test has not seen for
    # longest wins the diversity term.
    t0 = make_test("t0", agents=("a0", "a1"))
    instance = make_instance(
        [(t0, 0.5)],
        [make_agent("a0"), make_agent("a1")],
        pairs={("t0", "a0"): 4, ("t0", "a1"): 1},
        cycle=5,
    )
    got, _ = solve_detailed(instance)
    assert got.assignments == {"a0": (), "a1": ("t0",)}


def test_anytime_budget_returns_seed_or_better():
    rng = np.random.Generator(np.random.PCG64(99))
    instance = random_instance(
        rng, max_tests=40, min_tests=40, max_agents=4, max_obligatory=0,
        time_budget_ms=2000,
    )
    greedy = schedule_greedy(instance)
    got, stats = solve_detailed(instance, node_budget=1)
    assert stats.nodes <= 1
    assert not stats.completed
    assert objective_tuple(got) >= objective_tuple(greedy)


def test_wall_time_counts_packing(monkeypatch):
    # Greedy's wall time includes packing, so the solver's must too.
    real = cisched.solver.PackedInstance

    def slow_packing(instance):
        time.sleep(0.05)
        return real(instance)

    monkeypatch.setattr(cisched.solver, "PackedInstance", slow_packing)
    _, stats = solve_detailed(trap_instance())
    assert stats.wall_ms >= 50


def test_wall_deadline_stops_within_a_short_kernel_call(monkeypatch):
    # One fake millisecond per node puts the 100 ms budget's wall deadline
    # mid-search; the check between kernel calls must catch it promptly.
    now = [0.0]
    real = cisched.solver.get_kernel

    def timed_kernel(backend):
        kernel = real(backend)

        def call(*args):
            done, nodes = kernel(*args)
            now[0] += nodes / 1000.0
            return done, nodes

        return call

    monkeypatch.setattr(cisched.solver.time, "perf_counter", lambda: now[0])
    monkeypatch.setattr(cisched.solver, "get_kernel", timed_kernel)
    rng = np.random.Generator(np.random.PCG64(99))
    instance = random_instance(
        rng, max_tests=40, min_tests=40, max_agents=4, max_obligatory=0,
        time_budget_ms=100,
    )
    _, stats = solve_detailed(instance, backend="python")
    assert not stats.completed
    assert stats.nodes < stats.node_budget
    assert stats.wall_ms <= 1.1 * 100 * cisched.solver.WALL_SAFETY_FACTOR


def test_node_budget_validation():
    instance = trap_instance()
    with pytest.raises(ValueError):
        solve_detailed(instance, node_budget=0)


def test_time_budget_sizes_the_search(monkeypatch):
    # The node budget and every kernel call's size come from NODES_PER_MS.
    asked = []
    real = cisched.solver.get_kernel

    def recording_kernel(backend):
        kernel = real(backend)

        def call(*args):
            asked.append(args[-1])
            return kernel(*args)

        return call

    # A frozen clock keeps the wall deadline out of the way.
    monkeypatch.setattr(cisched.solver.time, "perf_counter", lambda: 0.0)
    monkeypatch.setattr(cisched.solver, "get_kernel", recording_kernel)
    rng = np.random.Generator(np.random.PCG64(99))
    instance = random_instance(
        rng, max_tests=40, min_tests=40, max_agents=4, max_obligatory=0,
        time_budget_ms=10,
    )
    _, stats = solve_detailed(instance)
    per_ms = cisched.solver.NODES_PER_MS
    assert stats.node_budget == instance.solver_time_budget_ms * per_ms
    assert not stats.completed
    assert len(asked) > 1
    assert asked[:-1] == [per_ms] * (len(asked) - 1)
    assert 1 <= asked[-1] <= per_ms


def test_resolve_backend():
    assert resolve_backend("python") == "python"
    assert resolve_backend("auto") == "python"
    with pytest.raises(ValueError):
        resolve_backend("cuda")
    with pytest.raises(ValueError):
        resolve_backend("numba")


# sha256 of traversal_outcomes(): schedules, objectives, nodes and
# completion of the Python kernel at fixed node budgets. A layout or
# kernel refactor must leave it unchanged; only a deliberate change to the
# traversal may update it, and must say why.
PINNED_TRAVERSAL_DIGEST = "46826adc41b8f44bb9308d3d74d854ac8eb65110f7e7621283b100eb44b5c990"


def generated_instance(tests: int, agents: int, diversity: bool, seed: int = 3):
    """A generated workload at cycle 10 with seeded random pair history."""
    budget = 60.0 * max(1, tests // (10 * agents))
    spec = WorkloadSpec(tests, agents, 1.0, 10.0, 0.8, 0.1, 0.01, 0.2, budget, seed)
    cases, pool, _ = generate_workload(spec)
    rng = np.random.Generator(np.random.PCG64(seed))
    pairs = {}
    for t in cases:
        for a in pool:
            if a.id in t.compatible_agents and rng.random() < 0.5:
                pairs[(t.id, a.id)] = int(rng.integers(0, 10))
    ranked = prioritize_all(cases, HistoryStore(), PriorityWeights(), 10)
    # A 100 s budget leaves the node budget as the only stop.
    return build_instance(
        ranked, pool, pairs, 10, solver_time_budget_ms=100_000, diversity=diversity
    )


def traversal_outcomes() -> list:
    rng = np.random.Generator(np.random.PCG64(2026))
    cases = []
    for k in range(60):
        instance = random_instance(rng, 16, 4, max_obligatory=4, min_tests=12)
        # Every third case without diversity.
        cases.append((replace(instance, diversity=k % 3 != 0), 3_000))
    cases += [(generated_instance(200, 4, diversity), 20_000) for diversity in (True, False)]
    outcomes = []
    for instance, nodes in cases:
        try:
            got, stats = solve_detailed(instance, backend="python", node_budget=nodes)
        except InfeasibleError as err:
            outcomes.append(["infeasible", list(err.test_ids)])
            continue
        assignments = sorted((a, list(t)) for a, t in got.assignments.items())
        outcomes.append([assignments, objective_tuple(got), stats.nodes, stats.completed])
    return outcomes


def test_python_traversal_matches_pinned_digest():
    # Covers searches that the node budget stops, which the oracle
    # comparison (exhaustive only) and rerun checks cannot see.
    outcomes = traversal_outcomes()
    assert [o[3] for o in outcomes[-2:]] == [False, False]
    got = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert got == PINNED_TRAVERSAL_DIGEST


# sha256 of large_traversal_outcomes(), pinned before the priority bound
# moved to Fenwick trees; as above, only a deliberate traversal change may
# update it.
PINNED_LARGE_TRAVERSAL_DIGEST = "ca1cbb219352e6f396a32c8c2cff49dfe88b3ec7e95238acdb8711b904a7bfdd"


def large_traversal_outcomes() -> list:
    outcomes = []
    for tests, agents, nodes in ((500, 8, 20_000), (2000, 16, 5_000)):
        for diversity in (True, False):
            instance = generated_instance(tests, agents, diversity)
            got, stats = solve_detailed(instance, backend="python", node_budget=nodes)
            assignments = sorted((a, list(t)) for a, t in got.assignments.items())
            outcomes.append([assignments, objective_tuple(got), stats.nodes, stats.completed])
    return outcomes


def test_large_traversal_matches_pinned_digest():
    # The random cases stop at 16 tests; pin traversal at 500 and 2000
    # tests too, where the bound's Fenwick trees are many levels deep.
    outcomes = large_traversal_outcomes()
    assert [o[2:] for o in outcomes] == [[20_000, False]] * 2 + [[5_000, False]] * 2
    got = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert got == PINNED_LARGE_TRAVERSAL_DIGEST


def test_solver_matches_oracle_with_histories():
    rng = np.random.Generator(np.random.PCG64(31337))
    instances = [random_instance(rng) for _ in range(60)]
    # Worthless tests make equal objectives common, so the pair-list
    # tie-break decides, down to one list being a prefix of the other.
    ties = np.random.Generator(np.random.PCG64(27182))
    instances += [zero_tie_instance(ties) for _ in range(100)]
    feasible = infeasible = 0
    for instance in instances:
        try:
            want = schedule_oracle(instance)
        except InfeasibleError as err:
            infeasible += 1
            with pytest.raises(InfeasibleError) as got_err:
                solve_detailed(instance)
            assert got_err.value.test_ids == err.test_ids
            continue
        feasible += 1
        got, _ = solve_detailed(instance)
        assert got.objective == want.objective
        assert got.assignments == want.assignments
    assert feasible > 0


def test_dominance_holds_when_greedy_covers_obligatory():
    rng = np.random.Generator(np.random.PCG64(2718))
    checked = 0
    for _ in range(120):
        instance = random_instance(rng, max_tests=14, max_agents=4)
        greedy = schedule_greedy(instance)
        obligatory = {p.test.id for p in instance.prioritized if p.test.obligatory}
        if not obligatory <= greedy.assigned_tests():
            # First-fill dropped a mandatory test; the exact objective is
            # then constrained differently and not comparable.
            continue
        got, _ = solve_detailed(instance)
        assert objective_tuple(got) >= objective_tuple(greedy)
        checked += 1
    assert checked > 40


def test_incumbent_objective_is_reconstructible():
    rng = np.random.Generator(np.random.PCG64(555))
    for _ in range(20):
        instance = random_instance(rng)
        try:
            got, _ = solve_detailed(instance)
        except InfeasibleError:
            continue
        packed = PackedInstance(instance)
        col = {a: j for j, a in enumerate(packed.agent_ids)}
        row = {t: i for i, t in enumerate(packed.test_ids)}
        assign = np.full(packed.n, -1, dtype=np.int64)
        for agent_id, test_ids in got.assignments.items():
            for t in test_ids:
                assign[row[t]] = col[agent_id]
        rebuilt = ObjectiveVector.from_units(
            *packed.objective_units(assign), staleness_cap=instance.staleness_cap
        )
        assert rebuilt == got.objective
