"""The search kernel: its inputs, resumable state, bound and tie-break."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cisched.kernels import SearchArgs, get_kernel, search_args, warmup
from cisched.scheduling import PackedInstance, greedy_assignment

from helpers import make_agent, make_instance, make_test, random_instance


def test_warmup_reports_backend():
    assert warmup("python") == "python"
    assert warmup("auto") == "python"
    with pytest.raises(ValueError):
        warmup("numba")


def test_get_kernel_python_is_plain_function():
    kernel = get_kernel("python")
    assert callable(kernel)
    with pytest.raises(ValueError):
        get_kernel("cuda")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_chunked_search_resumes_exactly(seed):
    # All traversal state lives in the arguments: 1-node calls must reach
    # the state of one uninterrupted call with the same budget.
    rng = np.random.Generator(np.random.PCG64(seed))
    instance = random_instance(rng, min_tests=10, max_tests=16, max_agents=4)
    packed = PackedInstance(instance)
    budget = 400
    kernel = get_kernel("python")
    whole = search_args(packed, greedy_assignment(packed))
    done, used = kernel(*whole, budget)
    stepped = search_args(packed, greedy_assignment(packed))
    step_done, step_used = 0, 0
    while step_used < budget and not step_done:
        step_done, nodes = kernel(*stepped, 1)
        step_used += nodes
    assert (step_done, step_used) == (done, used)
    assert stepped.inc_assign == whole.inc_assign
    assert stepped.inc_acc == whole.inc_acc


def whole_seconds(instance):
    """The instance with durations and budgets rounded to whole seconds.

    Sums of durations then often fill the pooled capacity exactly, the
    boundary case of the priority bound.
    """
    tests = [
        replace(p, test=replace(p.test, avg_duration=float(max(1, round(p.test.avg_duration)))))
        for p in instance.prioritized
    ]
    agents = [replace(a, budget=float(round(a.budget))) for a in instance.agents]
    return replace(instance, prioritized=tuple(tests), agents=tuple(agents))


def linear_scan_bound(args):
    """The priority bound, the time bound and the prefix length k at the
    current node, by a scan of the density order."""
    d = args.ctl[0]
    p_bound, rem = args.acc[0], args.capacity - args.acc[2]
    for k, i in enumerate(args.dens_order):
        if i < d:
            continue
        p_bound += args.prio[i]
        if args.dur[i] > rem:
            return p_bound, args.capacity, k
        rem -= args.dur[i]
    return p_bound, args.capacity - rem, args.n


def descends_against(args, inc_priority):
    """Whether one kernel node from a copy of args descends against an
    incumbent of that priority (and diversity -1, so equal bounds pass)."""
    probe = SearchArgs(*(a[:] if isinstance(a, list) else a for a in args))
    probe.inc_acc[:] = [inc_priority, -1, -1]
    get_kernel("python")(*probe, 1)
    return probe.ctl[0] == args.ctl[0] + 1


def roomy(instance):
    """The instance with each agent's budget raised so that the pooled
    capacity exceeds the total demand: the root's bound has no break item."""
    demand = sum(p.test.avg_duration for p in instance.prioritized)
    budget = float(int(demand / len(instance.agents)) + 1)
    return replace(instance, agents=tuple(replace(a, budget=budget) for a in instance.agents))


def triple_bounds(args, d):
    """The priority bound, the time bound and k that the bnd triple at
    depth d gives."""
    p_sum, rem, k = args.bnd[3 * d:3 * d + 3]
    if k < args.n:
        return p_sum + args.prio[args.dens_order[k]], args.capacity, k
    return p_sum, args.capacity - rem, k


def check_bound_reads(instance, max_nodes=3_000):
    """Step the kernel one node at a time from the greedy seed. After every
    fresh node that read a bound, the bounds its bnd triple gives must equal
    the linear scan; where the bound does not prune against a worthless
    incumbent, the kernel must prune exactly when the incumbent's priority
    exceeds the scan's bound. Returns how the break item's walks went:
    zero steps, back, forward, and how many ended at k = n."""
    packed = PackedInstance(instance)
    args = search_args(packed, greedy_assignment(packed))
    kernel = get_kernel("python")
    walks = Counter()
    done = used = 0
    while not done and used < max_nodes:
        d = args.ctl[0]
        reads = (
            d < args.n and args.pos[d] == 0
            and args.suffix_oblig_dur[d] <= args.capacity - args.acc[2]
        )
        if reads:
            want = linear_scan_bound(args)
            start = args.bnd[3 * d - 1] if d else 0
            if descends_against(args, -1):
                assert descends_against(args, want[0])
                assert not descends_against(args, want[0] + 1)
        done, nodes = kernel(*args, 1)
        used += nodes
        if reads:
            assert triple_bounds(args, d) == want
            k = want[2]
            walks["zero" if k == start else "back" if k < start else "forward"] += 1
            if k == args.n:
                walks["k = n"] += 1
    return walks


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), diversity=st.booleans(), whole=st.booleans(),
    room=st.booleans(),
)
def test_walked_bounds_match_the_linear_scan(seed, diversity, whole, room):
    rng = np.random.Generator(np.random.PCG64(seed))
    instance = replace(random_instance(rng, 12, 4, max_obligatory=4), diversity=diversity)
    if whole:
        instance = whole_seconds(instance)
    if room:
        instance = roomy(instance)
    check_bound_reads(instance)


def test_bound_walks_cover_every_direction():
    # The property above cannot pass vacuously: these instances walk the
    # break item zero steps, back and forward, and reach k = n.
    walks = Counter()
    for seed in range(4):
        rng = np.random.Generator(np.random.PCG64(seed))
        instance = random_instance(rng, 12, 4, max_obligatory=4, min_tests=8)
        walks += check_bound_reads(instance) + check_bound_reads(roomy(whole_seconds(instance)))
    assert set(walks) == {"zero", "back", "forward", "k = n"}
    # The density prefix t1, t2, t3 fills the 10 s budget exactly. Placing
    # t0 (7 s, past it) walks back over t3 and t2 to a pool of 3 s that t1
    # fills exactly, so the walk must stop at rem = 0.
    tests = [(make_test("t0", duration=7.0), 0.9)] + [
        (make_test(f"t{i}", duration=w), p) for i, w, p in ((1, 3.0, 0.8), (2, 3.0, 0.7), (3, 4.0, 0.6))
    ]
    assert check_bound_reads(make_instance(tests, [make_agent("a0")], diversity=False))["back"] == 1


def traversal_state(args, done, used):
    """Everything a resumed search reads: the path to the current node, the
    partial assignment and its sums, and the incumbent."""
    d = args.ctl[0]
    return (
        done, used, d, args.pos[:d + 1], args.assign, args.residual, args.acc,
        args.inc_assign, args.inc_acc,
    )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), diversity=st.booleans())
def test_node_budget_stops_at_the_same_state_in_one_call_or_many(seed, diversity):
    # Up to 8 obligatory tests of whole seconds: the obligatory check
    # prunes often, so many children are counted without being entered,
    # and a budget often runs out on one. For every budget b, one call of
    # b nodes stops where b one-node calls do.
    rng = np.random.Generator(np.random.PCG64(seed))
    instance = random_instance(
        rng, max_tests=16, max_agents=4, max_obligatory=8, min_tests=12
    )
    instance = whole_seconds(replace(instance, diversity=diversity))
    packed = PackedInstance(instance)
    seed_assign = greedy_assignment(packed)
    kernel = get_kernel("python")
    stepped = search_args(packed, seed_assign)
    done = used = 0
    for budget in range(1, 301):
        done, nodes = kernel(*stepped, 1)
        used += nodes
        whole = search_args(packed, seed_assign)
        got = kernel(*whole, budget)
        assert traversal_state(whole, *got) == traversal_state(stepped, done, used)
        if done:
            break


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), diversity=st.booleans())
def test_search_args_children_follow_compatibility_and_staleness(seed, diversity):
    rng = np.random.Generator(np.random.PCG64(seed))
    instance = replace(random_instance(rng), diversity=diversity)
    packed = PackedInstance(instance)
    args = search_args(packed, greedy_assignment(packed))
    agent_rank = {a: r for r, a in enumerate(sorted(packed.agent_ids))}
    # CSR rows: offsets start at 0, never decrease and end at the length of
    # both flat arrays.
    starts = list(args.child_start)
    assert len(starts) == args.n + 1
    assert starts[0] == 0
    assert starts[-1] == len(args.child_agents) == len(args.child_stale)
    assert all(a <= b for a, b in zip(starts, starts[1:]))
    maxima = []
    for i, p in enumerate(instance.prioritized):
        row = slice(starts[i], starts[i + 1])
        agents = [packed.agent_ids[j] for j in args.child_agents[row]]
        assert sorted(agents) == sorted(p.test.compatible_agents & set(packed.agent_ids))
        # The documented rule, written out: cap for a pair that never ran,
        # else the cycles since it ran clamped to [0, cap]; 0 without diversity.
        cap, lasts = instance.staleness_cap, instance.pair_last.get(p.test.id, {})
        stale = [
            (cap if a not in lasts
             else min(max(instance.current_cycle - lasts[a], 0), cap))
            if diversity else 0
            for a in agents
        ]
        assert args.child_stale[row] == stale
        keys = [(-s, agent_rank[a]) for s, a in zip(stale, agents)]
        assert keys == sorted(keys)
        maxima.append(max(stale, default=0))
    assert args.suffix_stale == [sum(maxima[d:]) for d in range(args.n + 1)]


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
def test_tie_break_when_the_incumbent_skips(tb_obligatory, seed, budget, want):
    # Two worthless tests (0 µs, priority 0, no diversity) tie on every
    # objective, so the sorted (test id, agent id) pair list decides.
    tests = [
        (make_test("ta", duration=1e-7), 0.0),
        (make_test("tb", duration=1e-7, obligatory=tb_obligatory), 0.0),
    ]
    packed = PackedInstance(make_instance(tests, [make_agent("a0")], diversity=False))
    args = search_args(packed, seed)
    get_kernel("python")(*args, budget)
    assert args.inc_assign == want
