"""Branch-and-bound solver: exactness, anytime contract, tie-breaks, backends."""

from __future__ import annotations

import time

import numpy as np
import pytest

import cisched.solver
from cisched import (
    InfeasibleError,
    ObjectiveVector,
    schedule_greedy,
    schedule_optimal,
    schedule_oracle,
    solve_detailed,
)
from cisched.kernels import NUMBA_AVAILABLE, resolve_backend, warmup
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

BACKENDS = ["python"] + (["numba"] if NUMBA_AVAILABLE else [])


@pytest.fixture(scope="module", autouse=True)
def _warm_kernels():
    for backend in BACKENDS:
        warmup(backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_solver_beats_first_fill_on_trap(backend):
    instance = trap_instance()
    got, stats = solve_detailed(instance, backend=backend)
    assert got.assignments == {"a0": ("tb", "tc")}
    assert got.objective == ObjectiveVector(0.8, 2.0, 10.0)
    assert stats.completed
    assert stats.backend == backend


def test_schedule_optimal_equals_detailed():
    instance = trap_instance()
    assert schedule_optimal(instance).objective == ObjectiveVector(0.8, 2.0, 10.0)


@pytest.mark.parametrize("backend", BACKENDS)
def test_solver_covers_obligatory_that_greedy_drops(backend):
    filler = make_test("t0", duration=10.0)
    must = make_test("t1", duration=10.0, obligatory=True)
    instance = make_instance(
        [(filler, 0.9), (must, 0.1)], [make_agent("a0", budget=10.0)]
    )
    greedy = schedule_greedy(instance)
    assert greedy.assigned_tests() == {"t0"}
    got, _ = solve_detailed(instance, backend=backend)
    assert got.assigned_tests() == {"t1"}
    assert got.objective.total_priority == pytest.approx(0.1)


@pytest.mark.parametrize("backend", BACKENDS)
def test_solver_raises_on_impossible_obligatory(backend):
    # t0 fits no agent even alone, so it alone is the reported culprit.
    t0 = make_test("t0", duration=20.0, obligatory=True)
    t1 = make_test("t1", duration=6.0, obligatory=True)
    t2 = make_test("t2", duration=6.0, obligatory=True)
    instance = make_instance(
        [(t0, 0.9), (t1, 0.8), (t2, 0.7)], [make_agent("a0", budget=10.0)]
    )
    with pytest.raises(InfeasibleError) as err:
        solve_detailed(instance, backend=backend)
    assert err.value.test_ids == ("t0",)

    # Joint conflicts have no single culprit: every obligatory id surfaces.
    conflict = make_instance(
        [(t1, 0.8), (t2, 0.7)], [make_agent("a0", budget=10.0)]
    )
    with pytest.raises(InfeasibleError) as err:
        solve_detailed(conflict, backend=backend)
    assert err.value.test_ids == ("t1", "t2")


def test_empty_instances():
    no_tests = make_instance([], [make_agent("a0")])
    got, stats = solve_detailed(no_tests)
    assert got.assignments == {"a0": ()}
    assert got.objective == ObjectiveVector(0.0, 0.0, 0.0)
    assert stats.completed

    no_agents = make_instance([(make_test("t0"), 0.5)], [])
    got, _ = solve_detailed(no_agents)
    assert got.assignments == {}
    assert got.objective == ObjectiveVector(0.0, 0.0, 0.0)


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


def test_node_budget_validation():
    instance = trap_instance()
    with pytest.raises(ValueError):
        solve_detailed(instance, nodes_per_ms=0)
    with pytest.raises(ValueError):
        solve_detailed(instance, node_budget=0)


def test_resolve_backend():
    assert resolve_backend("python") == "python"
    auto = resolve_backend("auto")
    assert auto == ("numba" if NUMBA_AVAILABLE else "python")
    with pytest.raises(ValueError):
        resolve_backend("cuda")
    if not NUMBA_AVAILABLE:
        with pytest.raises(RuntimeError):
            resolve_backend("numba")


@pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba backend unavailable")
def test_backends_traverse_identically():
    rng = np.random.Generator(np.random.PCG64(4242))
    for _ in range(25):
        instance = random_instance(rng)
        runs = {}
        for backend in ("python", "numba"):
            try:
                got, stats = solve_detailed(instance, backend=backend)
                runs[backend] = (got.assignments, got.objective, stats.nodes)
            except InfeasibleError as err:
                runs[backend] = err.test_ids
        assert runs["python"] == runs["numba"]


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
