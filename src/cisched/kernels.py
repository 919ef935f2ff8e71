"""Branch-and-bound search kernel with numba and pure-Python backends.

The kernel is one function over int64 arrays and scalars. When numba is
importable and CISCHED_NO_NUMBA is unset, an njit-compiled copy is built;
the plain function stays available as the fallback. Both backends execute
the same bytecode-level logic over integers, so they visit nodes in the
same order and produce identical incumbents for a given node budget.

:func:`search_args` is the only builder of kernel inputs: it derives the
search-only arrays from a PackedInstance, so greedy never pays for them.
:func:`warmup` compiles through it, so numba sees the solver's types.
"""

from __future__ import annotations

import os

import numpy as np

from cisched.domain import TestAgent, TestCase
from cisched.priority import PrioritizedTest
from cisched.scheduling import PackedInstance, build_instance

# Node throughput used to convert a wall-clock budget into a deterministic
# node budget. Calibrated with benchmarks/bench_backends.py; the exact value
# only shifts how much of the tree an anytime run explores.
DEFAULT_NODES_PER_MS = {"numba": 14000, "python": 70}


def _search_chunk(
    n,
    m,
    dur,  # int64[n] duration units
    prio,  # int64[n] priority units
    oblig,  # int64[n] 1 if the test must be assigned
    child_agents,  # int64[n, >=1] agent columns per test, stalest first
    child_stale,  # int64[n, >=1] pair staleness units of each child
    child_counts,  # int64[n]
    dens_order,  # int64[n] test indices by exact descending priority density
    suffix_stale,  # int64[n+1] sum of per-test max staleness over tests >= d
    suffix_dur,  # int64[n+1]
    suffix_oblig_dur,  # int64[n+1]
    rank_to_idx,  # int64[n] test index holding each sorted-id rank
    agent_rank,  # int64[m] rank of each agent column in sorted-id order
    pos,  # int64[n+1] next child index per depth (0 = fresh entry)
    assign,  # int64[n] current partial assignment, -1 = unassigned
    residual,  # int64[m] remaining budget per agent
    acc,  # int64[3] accumulated (priority, staleness, time)
    ctl,  # int64[1] current depth
    inc_assign,  # int64[n] incumbent assignment
    inc_acc,  # int64[3] incumbent objective
    node_budget,  # max nodes to expand in this call
):
    """Resume depth-first search for up to node_budget nodes.

    Returns (done, nodes_used). All traversal state lives in the argument
    arrays, so a call picks up exactly where the previous one stopped.
    """
    nodes = 0
    done = 0
    while nodes < node_budget:
        d = ctl[0]
        back = False

        if d == n:
            # Leaf: full assignment. Replace the incumbent if strictly
            # better, or equal with a smaller sorted (test, agent) pair key.
            nodes += 1
            back = True
            better = False
            if acc[0] != inc_acc[0]:
                better = acc[0] > inc_acc[0]
            elif acc[1] != inc_acc[1]:
                better = acc[1] > inc_acc[1]
            elif acc[2] != inc_acc[2]:
                better = acc[2] > inc_acc[2]
            else:
                # The sorted (test_rank, agent_rank) pair lists agree up to
                # the first test rank where the assignments differ.
                for r in range(n):
                    ja = assign[rank_to_idx[r]]
                    jb = inc_assign[rank_to_idx[r]]
                    if ja != jb:
                        if ja >= 0 and jb >= 0:
                            better = agent_rank[ja] < agent_rank[jb]
                        else:
                            # The side that skips this test is smaller only
                            # as a strict prefix: it places no later test.
                            rest = assign if ja < 0 else inc_assign
                            later = False
                            for k in range(r + 1, n):
                                if rest[rank_to_idx[k]] >= 0:
                                    later = True
                                    break
                            better = later != (ja < 0)
                        break
            if better:
                for i in range(n):
                    inc_assign[i] = assign[i]
                inc_acc[0] = acc[0]
                inc_acc[1] = acc[1]
                inc_acc[2] = acc[2]

        elif pos[d] == 0:
            # Fresh node: bound the subtree against the incumbent. Each
            # bound component is independently optimistic, so componentwise
            # domination makes the lexicographic comparison safe; pruning
            # only on a strictly smaller bound keeps every potential
            # tie-break winner reachable.
            nodes += 1
            pool = 0
            for j in range(m):
                pool += residual[j]
            if suffix_oblig_dur[d] > pool:
                # Remaining obligatory tests cannot fit even when capacity
                # is pooled: no feasible leaf below this node.
                back = True
            else:
                p_bound = acc[0]
                rem = pool
                for k in range(n):
                    i = dens_order[k]
                    if i < d:
                        continue
                    if dur[i] <= rem:
                        p_bound += prio[i]
                        rem -= dur[i]
                    else:
                        # Whole break item: at least the fractional
                        # relaxation, which bounds the 0/1 optimum.
                        p_bound += prio[i]
                        break
                d_bound = acc[1] + suffix_stale[d]
                t_extra = suffix_dur[d]
                if pool < t_extra:
                    t_extra = pool
                t_bound = acc[2] + t_extra
                if p_bound != inc_acc[0]:
                    back = p_bound < inc_acc[0]
                elif d_bound != inc_acc[1]:
                    back = d_bound < inc_acc[1]
                else:
                    back = t_bound < inc_acc[2]

        if not back:
            # Descend into the next viable child: compatible agents with
            # room, stalest first, then skip (child index child_counts[d]).
            count = child_counts[d]
            total = count + 1 - oblig[d]
            c = pos[d]
            while c < count and dur[d] > residual[child_agents[d, c]]:
                c += 1
            if c < total:
                if c < count:
                    j = child_agents[d, c]
                    assign[d] = j
                    residual[j] -= dur[d]
                    acc[0] += prio[d]
                    acc[1] += child_stale[d, c]
                    acc[2] += dur[d]
                pos[d] = c + 1
                ctl[0] = d + 1
                pos[d + 1] = 0
            else:
                back = True

        if back:
            # Leaf, pruned subtree or no child left: undo the parent's
            # choice. Backtracking past the root ends the search.
            if d == 0:
                done = 1
                break
            d -= 1
            ctl[0] = d
            c = pos[d] - 1
            if c < child_counts[d]:
                j = child_agents[d, c]
                residual[j] += dur[d]
                acc[0] -= prio[d]
                acc[1] -= child_stale[d, c]
                acc[2] -= dur[d]
                assign[d] = -1
    return done, nodes


NUMBA_DISABLED = bool(os.environ.get("CISCHED_NO_NUMBA"))
_numba_kernel = None
if not NUMBA_DISABLED:
    try:
        import numba

        _numba_kernel = numba.njit(cache=True)(_search_chunk)
    except ImportError:
        _numba_kernel = None

NUMBA_AVAILABLE = _numba_kernel is not None


def resolve_backend(backend: str = "auto") -> str:
    """Map a backend request to the concrete backend to run."""
    if backend == "auto":
        return "numba" if NUMBA_AVAILABLE else "python"
    if backend == "python":
        return "python"
    if backend == "numba":
        if not NUMBA_AVAILABLE:
            reason = "disabled by CISCHED_NO_NUMBA" if NUMBA_DISABLED else "numba is not importable"
            raise RuntimeError(f"numba backend unavailable: {reason}")
        return "numba"
    raise ValueError(f"unknown backend {backend!r}; expected auto, numba, or python")


def get_kernel(backend: str):
    resolved = resolve_backend(backend)
    if resolved == "numba":
        return _numba_kernel
    return _search_chunk


def density_order(prio: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Test indices by descending priority per unit time, exactly.

    Zero-duration tests come first. The rest sort by the integer key
    floor(p * 2**k / t): two distinct densities differ by at least
    1 / (t1 * t2) > 2**-k, so their keys differ too and float rounding can
    never reorder them. Equal densities keep index order.
    """
    p, t = prio.tolist(), dur.tolist()
    k = 2 * max(t, default=0).bit_length()
    free = [i for i in range(len(t)) if t[i] == 0]
    timed = sorted((i for i in range(len(t)) if t[i]), key=lambda i: -((p[i] << k) // t[i]))
    return np.array(free + timed, dtype=np.int64)


def _suffix_sums(values: np.ndarray) -> np.ndarray:
    """int64[n+1] whose entry d is the sum of values[d:]."""
    out = np.zeros(len(values) + 1, dtype=np.int64)
    out[:-1] = np.cumsum(values[::-1])[::-1]
    return out


def search_args(packed: PackedInstance, incumbent: np.ndarray) -> tuple:
    """Every kernel argument except node_budget, in signature order.

    ``incumbent`` is passed itself: the kernel overwrites it in place
    whenever it finds a better assignment.
    """
    n, m = packed.n, packed.m
    # Ranks in sorted-id order, so integer pair comparisons mirror the
    # tie-break on sorted (test id, agent id) string pairs.
    rank_to_idx = sorted(range(n), key=packed.test_ids.__getitem__)
    by_id = {a_id: r for r, a_id in enumerate(sorted(packed.agent_ids))}
    rank = [by_id[a_id] for a_id in packed.agent_ids]
    # Children per test: compatible agents ordered stalest-first so the
    # search meets diverse assignments early; skip is implicit last.
    child_agents = np.full((n, max(m, 1)), -1, dtype=np.int64)
    child_stale = np.zeros((n, max(m, 1)), dtype=np.int64)
    child_counts = np.array([len(cols) for cols in packed.compat], dtype=np.int64)
    for i, cols in enumerate(packed.compat):
        children = sorted((-packed.stale_units(i, j), rank[j], j) for j in cols)
        child_agents[i, : len(cols)] = [j for _, _, j in children]
        child_stale[i, : len(cols)] = [-s for s, _, _ in children]
    dur, oblig = packed.dur_us, packed.oblig
    return (
        n, m, dur, packed.prio_u, oblig, child_agents, child_stale, child_counts,
        density_order(packed.prio_u, dur),
        # Column 0 holds each test's stalest child (0 with no child).
        _suffix_sums(child_stale[:, 0]), _suffix_sums(dur), _suffix_sums(dur * oblig),
        np.array(rank_to_idx, dtype=np.int64), np.array(rank, dtype=np.int64),
        # Traversal state at the root: pos, assign, residual, acc, ctl.
        np.zeros(n + 1, dtype=np.int64), np.full(n, -1, dtype=np.int64), packed.budget_us.copy(),
        np.zeros(3, dtype=np.int64), np.zeros(1, dtype=np.int64),
        incumbent, np.array(packed.objective_units(incumbent), dtype=np.int64),
    )


def warmup(backend: str = "auto") -> str:
    """Trigger JIT compilation on a tiny instance; returns the backend used."""
    resolved = resolve_backend(backend)
    agent = TestAgent(id="a0", budget=2.0)
    tests = [
        PrioritizedTest(TestCase(f"t{i}", 1.0, 0.5, frozenset({"a0"})), 1.0 - 0.5 * i)
        for i in range(2)
    ]
    packed = PackedInstance(build_instance(tests, [agent], {}, 0))
    incumbent = np.full(packed.n, -1, dtype=np.int64)
    get_kernel(resolved)(*search_args(packed, incumbent), np.int64(10_000))
    return resolved
