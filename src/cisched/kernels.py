"""Branch-and-bound search kernel.

The kernel is one pure-Python function over flat int lists and int
scalars. :func:`search_args` is the only builder of its inputs: it turns a
PackedInstance's plain ints into lists that the kernel reads and updates
in place, so greedy never pays for them. Each test's children are one row
of a CSR layout (compressed sparse rows): test i's agent columns and their
pair staleness sit at ``child_start[i]`` up to ``child_start[i + 1]`` of
``child_agents`` and ``child_stale``, so the kernel does no 2-D indexing.
Their staleness is :func:`cisched.scheduling.pair_staleness_units`, the
rule the objective and the oracle score pairs with.

Each fresh node's priority bound is Dantzig's fractional-knapsack bound
over the undecided tests against the pooled residual capacity (Martello
and Toth, *Knapsack Problems*, 1990, ch. 2): the longest prefix of the
density order whose undecided tests fit the pool, of length k, plus the
test just past it, the break item. Decided tests weigh 0 in the prefix,
so the break item is undecided. When no break item remains (k = n), every
undecided test fits and their total duration bounds the used time.

Every fresh node that reads a bound stores ``acc[0]`` plus the prefix's
priority, the pool less the prefix's duration (``rem``) and k at
``bnd[3d:3d + 3]``; the root starts from ``(acc[0], pool, 0)``. A fresh
node at depth d > 0 lies below the last node that read a bound at depth
d - 1, its parent, and starts from its triple, carrying the break item
down as Horowitz and Sahni do (*J. ACM* 21(2), 1974). Test d - 1 now
weighs 0. Placed past the prefix, it moves its priority into ``acc[0]``
and its duration out of the pool, so the first value gains its priority
and ``rem`` loses its duration. Skipped inside the prefix, it leaves the
prefix, so the first value loses its priority and ``rem`` gains its
duration. Otherwise the triple holds as it is. The node then walks k
back while ``rem`` < 0, each undecided test passed giving back its
priority and duration (the last one did not fit, so it is the break
item), or else forward over decided tests and undecided ones that fit. A
bound costs O(1) plus the positions its break item moves.

A descent does not enter a child whose fresh node the pooled obligatory
check would prune (the obligatory tests below it need more than the pool
it leaves). It counts that node, passes over the child and tries the next.
Node counts, bounds and the order of nodes are those of entering the
child, pruning it and backtracking, and so is the state a node budget
stops in: past the counted child when it took the last node, inside the
child when its parent's fresh node did.

``bnd`` is an argument list like the rest of the traversal state, so
chunked calls resume exactly.
"""

from __future__ import annotations

import inspect
from collections import namedtuple
from itertools import accumulate
from typing import Sequence

from cisched.scheduling import PackedInstance, density_order, pair_staleness_units


def _pairs(assignment, rank_to_idx, agent_rank):
    """The assignment's (test rank, agent rank) pairs, sorted by test rank."""
    return [(r, agent_rank[assignment[i]]) for r, i in enumerate(rank_to_idx) if assignment[i] >= 0]


def _search_chunk(
    n,
    dur,  # [n] duration units
    prio,  # [n] priority units
    oblig,  # [n] 1 if the test must be assigned
    child_start,  # [n+1] offset of each test's row in the child lists
    child_agents,  # [child_start[n]] agent columns per row, stalest first
    child_stale,  # [child_start[n]] pair staleness units of each child
    dens_order,  # [n] test indices by exact descending priority density
    dens_pos,  # [n] 1-based position of each test in dens_order
    suffix_stale,  # [n+1] sum of per-test max staleness over tests >= d
    suffix_oblig_dur,  # [n+1] sum of obligatory durations over tests >= d
    rank_to_idx,  # [n] test index holding each sorted-id rank
    agent_rank,  # [m] rank of each agent column in sorted-id order
    capacity,  # total budget of all agents
    pos,  # [n+1] next child index per depth (0 = fresh entry)
    assign,  # [n] current partial assignment, -1 = unassigned
    residual,  # [m] remaining budget per agent
    acc,  # [3] accumulated (priority, staleness, time)
    ctl,  # [1] current depth
    bnd,  # [3(n+1)] per depth: acc[0] plus prefix priority, pool less prefix duration, prefix length k
    inc_assign,  # [n] incumbent assignment
    inc_acc,  # [3] incumbent objective
    node_budget,  # max nodes to expand in this call
):
    """Resume depth-first search for up to node_budget nodes.

    Returns (done, nodes_used). All traversal state lives in the argument
    lists, so a call picks up exactly where the previous one stopped.
    """
    nodes = 0
    done = 0
    while nodes < node_budget:
        d = ctl[0]
        back = False

        if d == n:
            # Leaf: full assignment. Replace the incumbent if its objective
            # is lexicographically larger, or equal with a smaller sorted
            # (test rank, agent rank) pair list.
            nodes += 1
            back = True
            if acc > inc_acc or (
                acc == inc_acc
                and _pairs(assign, rank_to_idx, agent_rank)
                < _pairs(inc_assign, rank_to_idx, agent_rank)
            ):
                inc_assign[:] = assign
                inc_acc[:] = acc

        elif pos[d] == 0:
            # Fresh node: bound the subtree against the incumbent. Each
            # bound component is independently optimistic, so componentwise
            # domination makes the lexicographic comparison safe; pruning
            # only on a strictly smaller bound keeps every potential
            # tie-break winner reachable.
            nodes += 1
            pool = capacity - acc[2]  # the sum of residual, in O(1)
            if suffix_oblig_dur[d] > pool:
                # Remaining obligatory tests cannot fit even when capacity
                # is pooled: no feasible leaf below this node.
                back = True
            else:
                # Dantzig bound: walk the break item from the parent's
                # prefix, or from the empty one at the root (module
                # docstring); test d - 1 now weighs 0.
                b = 3 * d
                if d:
                    p_bound, rem, k = bnd[b - 3], bnd[b - 2], bnd[b - 1]
                    t = d - 1
                    if assign[t] >= 0:
                        if dens_pos[t] > k:
                            # Placed past the prefix.
                            p_bound += prio[t]
                            rem -= dur[t]
                    elif dens_pos[t] <= k:
                        # Skipped inside the prefix.
                        p_bound -= prio[t]
                        rem += dur[t]
                else:
                    p_bound, rem, k = acc[0], pool, 0
                if rem < 0:
                    # Only a placed test shrinks the pool: give back the
                    # prefix's last undecided tests until it fits.
                    while rem < 0:
                        k -= 1
                        t = dens_order[k]
                        if t >= d:
                            p_bound -= prio[t]
                            rem += dur[t]
                else:
                    while k < n:
                        t = dens_order[k]
                        if t >= d:
                            if dur[t] > rem:
                                break
                            p_bound += prio[t]
                            rem -= dur[t]
                        k += 1
                bnd[b] = p_bound
                bnd[b + 1] = rem
                bnd[b + 2] = k
                if k < n:
                    # Whole break item, the test t at position k where the
                    # walk stopped: at least the fractional relaxation,
                    # which bounds the 0/1 optimum.
                    p_bound += prio[t]
                    t_bound = capacity
                else:
                    # Every undecided test fits: their total duration is
                    # what the walk took from the pool.
                    t_bound = capacity - rem
                d_bound = acc[1] + suffix_stale[d]
                if p_bound != inc_acc[0]:
                    back = p_bound < inc_acc[0]
                elif d_bound != inc_acc[1]:
                    back = d_bound < inc_acc[1]
                else:
                    back = t_bound < inc_acc[2]

        if not back:
            # Descend into the next viable child: compatible agents with
            # room, stalest first, then skip (child index count).
            row = child_start[d]
            count = child_start[d + 1] - row
            total = count + 1 - oblig[d]
            w = dur[d]
            c = pos[d]
            while c < count and w > residual[child_agents[row + c]]:
                c += 1
            if nodes < node_budget:
                # A child whose fresh node the obligatory check would prune
                # is counted as that node and passed over. Every child that
                # places test d leaves the same pool, and skip leaves w
                # more. At d = n - 1 the children are leaves, and the slack
                # is the pool, which fits every viable child.
                slack = capacity - acc[2] - suffix_oblig_dur[d + 1]
                while c < total and slack < (w if c < count else 0):
                    nodes += 1
                    c += 1
                    if nodes == node_budget:
                        # Stop past the child, as if it had been entered,
                        # pruned and undone.
                        pos[d] = c
                        return done, nodes
                    while c < count and w > residual[child_agents[row + c]]:
                        c += 1
            if c < total:
                if c < count:
                    j = child_agents[row + c]
                    assign[d] = j
                    residual[j] -= w
                    acc[0] += prio[d]
                    acc[1] += child_stale[row + c]
                    acc[2] += w
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
            row = child_start[d]
            c = pos[d] - 1
            if c < child_start[d + 1] - row:
                j = child_agents[row + c]
                residual[j] += dur[d]
                acc[0] -= prio[d]
                acc[1] -= child_stale[row + c]
                acc[2] -= dur[d]
                assign[d] = -1
    return done, nodes


def resolve_backend(backend: str = "auto") -> str:
    """The backend that runs a request: always the Python kernel.

    Raises ValueError for any name but auto or python, so callers report it
    as invalid input.
    """
    if backend not in ("auto", "python"):
        raise ValueError(f"backend must be auto or python, got {backend!r}")
    return "python"


def get_kernel(backend: str):
    resolve_backend(backend)
    return _search_chunk


def _suffix_sums(values: Sequence[int]) -> list[int]:
    """[n+1] list whose entry d is the sum of values[d:]."""
    return list(accumulate(reversed(values), initial=0))[::-1]


SearchArgs = namedtuple("SearchArgs", list(inspect.signature(_search_chunk).parameters)[:-1])


def search_args(packed: PackedInstance, incumbent: Sequence[int]) -> SearchArgs:
    """Every kernel argument except node_budget, in signature order.

    The kernel only reads ``dur``, ``prio`` and ``oblig``, so they are the
    packed lists themselves; every other list is built here. ``inc_assign``
    is a copy of ``incumbent`` that the kernel overwrites in place whenever
    it finds a better assignment, so callers read the result back from it.
    """
    n = packed.n
    # Ranks in sorted-id order, so integer pair comparisons mirror the
    # tie-break on sorted (test id, agent id) string pairs.
    rank_to_idx = sorted(range(n), key=packed.test_ids.__getitem__)
    by_id = {a_id: r for r, a_id in enumerate(sorted(packed.agent_ids))}
    rank = [by_id[a_id] for a_id in packed.agent_ids]
    # One CSR row of children per test: compatible agents ordered
    # stalest-first so the search meets diverse assignments early; skip is
    # implicit last. stalest holds each row's first staleness (0 if empty).
    # A child sorts by the int (cap - staleness) * m + agent rank, so keys
    # ascend stalest-first with ties by rank, and // m and % m undo them.
    # pair_staleness_units scores every child, in CSR order, in one call.
    instance = packed.instance
    cap, m, last, a_ids = instance.staleness_cap, packed.m, instance.pair_last, packed.agent_ids
    rows = [last.get(t_id, {}) for t_id in packed.test_ids]
    lasts = [row.get(a_ids[j]) for row, cols in zip(rows, packed.compat) for j in cols]
    stale = pair_staleness_units(lasts, instance.current_cycle, cap, instance.diversity)
    col_of_rank = sorted(range(m), key=rank.__getitem__)
    child_start, child_agents, child_stale, stalest = [0], [], [], []
    for cols in packed.compat:
        s = child_start[-1]
        keys = sorted([(cap - u) * m + rank[j] for j, u in zip(cols, stale[s:s + len(cols)])])
        child_agents += [col_of_rank[k % m] for k in keys]
        child_stale += [cap - k // m for k in keys]
        child_start.append(len(child_agents))
        stalest.append(cap - keys[0] // m if keys else 0)
    dur, prio, oblig = packed.dur_us, packed.prio_u, packed.oblig
    order = density_order(prio, dur)
    dens_pos = [0] * n
    for k, i in enumerate(order):
        dens_pos[i] = k + 1
    return SearchArgs(
        n, dur, prio, oblig,
        child_start, child_agents, child_stale,
        order, dens_pos,
        _suffix_sums(stalest), _suffix_sums([t * o for t, o in zip(dur, oblig)]),
        rank_to_idx, rank, sum(packed.budget_us),
        # Traversal state at the root: pos, assign, residual, acc, ctl, bnd.
        [0] * (n + 1), [-1] * n, list(packed.budget_us),
        [0, 0, 0], [0], [0] * (3 * (n + 1)),
        list(incumbent), list(packed.objective_units(incumbent)),
    )


def warmup(backend: str = "auto") -> str:
    """The backend a solve would use; the Python kernel needs no compiling."""
    return resolve_backend(backend)
