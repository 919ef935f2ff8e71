"""Backend selection and the environment kill switch for the JIT path."""

from __future__ import annotations

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cisched.kernels import (
    DEFAULT_NODES_PER_MS,
    NUMBA_AVAILABLE,
    get_kernel,
    resolve_backend,
    search_args,
    warmup,
)
from cisched.scheduling import PackedInstance, greedy_assignment, pair_staleness_units

from helpers import make_agent, make_instance, make_test, random_instance, src_env

ROOT = Path(__file__).resolve().parents[1]
BACKENDS = ["python"] + (["numba"] if NUMBA_AVAILABLE else [])


def test_default_node_rates_cover_both_backends():
    assert set(DEFAULT_NODES_PER_MS) == {"numba", "python"}
    assert all(rate >= 1 for rate in DEFAULT_NODES_PER_MS.values())
    assert DEFAULT_NODES_PER_MS["numba"] > DEFAULT_NODES_PER_MS["python"]


def test_warmup_reports_backend():
    assert warmup("python") == "python"
    if NUMBA_AVAILABLE:
        assert warmup("auto") == "numba"


def test_get_kernel_python_is_plain_function():
    kernel = get_kernel("python")
    assert callable(kernel)
    with pytest.raises(ValueError):
        get_kernel("cuda")


def test_env_flag_disables_numba():
    code = (
        "from cisched import kernels; "
        "print(kernels.NUMBA_DISABLED, kernels.NUMBA_AVAILABLE, "
        "kernels.resolve_backend('auto'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=src_env(CISCHED_NO_NUMBA="1"),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False", "python"]

    proc = subprocess.run(
        [sys.executable, "-c", "from cisched import kernels; kernels.resolve_backend('numba')"],
        capture_output=True,
        text=True,
        env=src_env(CISCHED_NO_NUMBA="1"),
        timeout=120,
    )
    assert proc.returncode != 0
    assert "CISCHED_NO_NUMBA" in proc.stderr


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_chunked_search_resumes_exactly(seed):
    # All traversal state lives in the arguments: 1-node calls must reach
    # the state of one uninterrupted call with the same budget.
    rng = np.random.Generator(np.random.PCG64(seed))
    instance = random_instance(rng, min_tests=10, max_tests=16, max_agents=4)
    packed = PackedInstance(instance)
    budget = 400
    for backend in BACKENDS:
        kernel = get_kernel(backend)
        whole = search_args(packed, greedy_assignment(packed))
        done, used = kernel(*whole, np.int64(budget))
        stepped = search_args(packed, greedy_assignment(packed))
        step_done, step_used = 0, 0
        while step_used < budget and not step_done:
            step_done, nodes = kernel(*stepped, np.int64(1))
            step_used += nodes
        assert (step_done, step_used) == (done, used)
        # The last two arguments are the incumbent and its objective.
        for got, want in zip(stepped[-2:], whole[-2:]):
            assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), diversity=st.booleans())
def test_search_args_children_follow_compatibility_and_staleness(seed, diversity):
    rng = np.random.Generator(np.random.PCG64(seed))
    instance = replace(random_instance(rng), diversity=diversity)
    packed = PackedInstance(instance)
    args = search_args(packed, greedy_assignment(packed))
    n, child_agents, child_stale, child_counts, suffix_stale = (args[i] for i in (0, 5, 6, 7, 9))
    agent_rank = {a: r for r, a in enumerate(sorted(packed.agent_ids))}
    maxima = []
    for i, p in enumerate(instance.prioritized):
        count = child_counts[i]
        agents = [packed.agent_ids[j] for j in child_agents[i, :count]]
        assert sorted(agents) == sorted(p.test.compatible_agents & set(packed.agent_ids))
        stale = [
            pair_staleness_units(
                p.test.id, a, instance.pair_last_cycle, instance.current_cycle,
                instance.staleness_cap,
            ) if diversity else 0
            for a in agents
        ]
        assert child_stale[i, :count].tolist() == stale
        keys = [(-s, agent_rank[a]) for s, a in zip(stale, agents)]
        assert keys == sorted(keys)
        maxima.append(max(stale, default=0))
    assert suffix_stale.tolist() == [sum(maxima[d:]) for d in range(n + 1)]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "tb_obligatory, seed, budget, want",
    [
        # {tb} places tb after the skipped ta, so {ta, tb} sorts first.
        (True, [-1, 0], 100, [0, 0]),
        # The empty list is a prefix of {ta, tb}, the first leaf (3 nodes).
        (False, [-1, -1], 3, [-1, -1]),
    ],
    ids=["later-pair", "prefix"],
)
def test_tie_break_when_the_incumbent_skips(backend, tb_obligatory, seed, budget, want):
    # Two worthless tests (0 µs, priority 0, no diversity) tie on every
    # objective, so the sorted (test id, agent id) pair list decides.
    tests = [
        (make_test("ta", duration=1e-7), 0.0),
        (make_test("tb", duration=1e-7, obligatory=tb_obligatory), 0.0),
    ]
    packed = PackedInstance(make_instance(tests, [make_agent("a0")], diversity=False))
    incumbent = np.array(seed, dtype=np.int64)
    get_kernel(backend)(*search_args(packed, incumbent), np.int64(budget))
    assert incumbent.tolist() == want


def test_bench_backends_runs():
    # The calibration tool the README points to must keep running.
    script = str(ROOT / "benchmarks" / "bench_backends.py")
    args = ["--tests", "30", "--agents", "3", "--repeats", "1", "--target-ms", "20"]
    proc = subprocess.run(
        [sys.executable, script, *args],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert any(line.lstrip().startswith("python:") for line in proc.stdout.splitlines())
