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
and Toth, *Knapsack Problems*, 1990, ch. 2). At the root, and wherever
the parent's bound does not carry over, it is computed in O(log n) from
two Fenwick trees (Fenwick, *Softw. Pract. Exp.* 24(3), 1994).
``bit_dur`` and ``bit_prio`` are indexed by 1-based position in
``dens_order`` and hold the duration and the priority of exactly the
tests at depth >= ``ctl[1]``. Descents and backtracks leave them alone.
Only a fresh node that runs the lift brings them to its own depth d
first: it removes the tests from ``ctl[1]`` up to d, or adds back those
from d up to ``ctl[1]``, and sets ``ctl[1]`` to d. Leaves, nodes that the
obligatory check prunes and nodes that reuse their parent's bound pay no
tree update. One binary-lifting descent from ``top`` finds the longest
density prefix whose duration fits the pool, of length k; decided tests
weigh 0 there, so the test just past that prefix is undecided and is the
break item. When no break item remains (k = n), every undecided test
fits and their total duration is what the descent took from the pool,
which bounds the used time.

Every fresh node that reads a bound stores its priority bound, its time
bound and k at ``bnd[3d:3d + 3]``. A fresh node at depth d > 0 lies
below the last node that read a bound at depth d - 1, its parent, and
with q = ``dens_pos[d - 1]`` and the parent's k it takes its bound from
there, without the trees, in three cases (Horowitz and Sahni, *J. ACM*
21(2), 1974, carry the break item down the same way):

- (a) test d - 1 was placed and q <= k. The pool and every prefix sum
  from q on fall by its duration, and the sums before q were already at
  most the sum up to q less that duration, so the same k is the longest
  prefix that fits. The priority the test leaves the prefix is now in
  ``acc[0]``, and the time bound stays ``acc[2]`` plus the pool, or plus
  the undecided duration when k = n: both bounds are the parent's.
- (b) test d - 1 was skipped and q > k + 1. The pool and the prefix up to
  the break item, the item itself included, are unchanged: the bounds
  are the parent's.
- (c) test d - 1 was skipped and k = n. Every undecided test still fits,
  so k stays n, and the prefix has lost exactly that test: the priority
  bound is the parent's less ``prio[d - 1]`` and the time bound the
  parent's less ``dur[d - 1]``.

Any other node (placed past the break item, or skipped at or before it
while one exists) may move the prefix and runs the lift, so a bound
still costs O(log n) at worst. The trees stay behind until then.

A descent does not enter a child whose fresh node the pooled obligatory
check would prune (the obligatory tests below it need more than the pool
it leaves). It counts that node, passes over the child and tries the next.
Node counts, bounds and the order of nodes are those of entering the
child, pruning it and backtracking, and so is the state a node budget
stops in: past the counted child when it took the last node, inside the
child when its parent's fresh node did.

The trees and ``bnd`` are argument lists like the rest of the traversal
state, so chunked calls resume exactly.
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
    bit_dur,  # [n+1] Fenwick tree of undecided durations by density position
    bit_prio,  # [n+1] Fenwick tree of undecided priorities by density position
    top,  # highest power of two <= n, 0 when n is 0
    suffix_stale,  # [n+1] sum of per-test max staleness over tests >= d
    suffix_oblig_dur,  # [n+1] sum of obligatory durations over tests >= d
    rank_to_idx,  # [n] test index holding each sorted-id rank
    agent_rank,  # [m] rank of each agent column in sorted-id order
    capacity,  # total budget of all agents
    pos,  # [n+1] next child index per depth (0 = fresh entry)
    assign,  # [n] current partial assignment, -1 = unassigned
    residual,  # [m] remaining budget per agent
    acc,  # [3] accumulated (priority, staleness, time)
    ctl,  # [2] current depth, depth from which the trees hold the tests
    bnd,  # [3(n+1)] per depth: priority bound, time bound and prefix length k of its last bound
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
                # Dantzig bound: the longest density prefix of undecided
                # tests that fits the pool. Below the root it is often the
                # parent's, read from bnd in O(1) (module docstring, cases
                # (a)-(c)); otherwise one binary-lifting descent over the
                # trees finds it (decided tests weigh 0) once they hold the
                # tests at depth >= d.
                b = 3 * d
                lift = True
                if d:
                    p_bound = bnd[b - 3]
                    t_bound = bnd[b - 2]
                    k = bnd[b - 1]
                    q = dens_pos[d - 1]
                    if assign[d - 1] >= 0:
                        # (a) Placed inside the prefix.
                        lift = q > k
                    elif q > k + 1:
                        # (b) Skipped past the break item.
                        lift = False
                    elif k == n:
                        # (c) Skipped with no break item.
                        p_bound -= prio[d - 1]
                        t_bound -= dur[d - 1]
                        lift = False
                if lift:
                    t = ctl[1]
                    while t < d:
                        k = dens_pos[t]
                        while k <= n:
                            bit_dur[k] -= dur[t]
                            bit_prio[k] -= prio[t]
                            k += k & -k
                        t += 1
                    while t > d:
                        t -= 1
                        k = dens_pos[t]
                        while k <= n:
                            bit_dur[k] += dur[t]
                            bit_prio[k] += prio[t]
                            k += k & -k
                    ctl[1] = d
                    p_bound = acc[0]
                    rem = pool
                    k = 0
                    step = top
                    while step > 0:
                        if k + step <= n and bit_dur[k + step] <= rem:
                            k += step
                            rem -= bit_dur[k]
                            p_bound += bit_prio[k]
                        step >>= 1
                    if k < n:
                        # Whole break item: at least the fractional
                        # relaxation, which bounds the 0/1 optimum. It is
                        # undecided, since a decided test weighs 0 and would
                        # extend the prefix.
                        p_bound += prio[dens_order[k]]
                        t_bound = acc[2] + pool
                    else:
                        # Every undecided test fits: the descent took their
                        # total duration from the pool.
                        t_bound = acc[2] + pool - rem
                bnd[b] = p_bound
                bnd[b + 1] = t_bound
                bnd[b + 2] = k
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


def _fenwick(values: Sequence[int]) -> list[int]:
    """[n+1] Fenwick tree over values[0..n-1] at 1-based positions, in O(n).

    Entry k holds the sum of the positions in (k - (k & -k), k], so a
    prefix sum or a point update touches O(log n) entries.
    """
    tree = [0, *values]
    for k in range(1, len(tree)):
        parent = k + (k & -k)
        if parent < len(tree):
            tree[parent] += tree[k]
    return tree


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
    # pair_staleness_units scores the pair history in one call; a pair
    # outside it never ran, and its offset comes from the same rule.
    instance = packed.instance
    cycle, cap, diversity = instance.current_cycle, instance.staleness_cap, instance.diversity
    m, pairs = packed.m, instance.pair_last_cycle
    col = {a_id: j for j, a_id in enumerate(packed.agent_ids)}
    offsets: dict[str, dict[int, int]] = {}
    for (t_id, a_id), u in zip(pairs, pair_staleness_units(pairs.values(), cycle, cap, diversity)):
        offsets.setdefault(t_id, {})[col[a_id]] = (cap - u) * m
    never = (cap - pair_staleness_units([None], cycle, cap, diversity)[0]) * m
    col_of_rank = sorted(range(m), key=rank.__getitem__)
    child_start, child_agents, child_stale, stalest = [0], [], [], []
    for t_id, cols in zip(packed.test_ids, packed.compat):
        offset = offsets.get(t_id, {}).get
        keys = sorted([offset(j, never) + rank[j] for j in cols])
        child_agents += [col_of_rank[k % m] for k in keys]
        child_stale += [cap - k // m for k in keys]
        child_start.append(len(child_agents))
        stalest.append(cap - keys[0] // m if keys else 0)
    dur, prio, oblig = packed.dur_us, packed.prio_u, packed.oblig
    # Fenwick trees over density positions; at the root every test is
    # undecided, so they hold all of them.
    order = density_order(prio, dur)
    dens_pos = [0] * n
    for k, i in enumerate(order):
        dens_pos[i] = k + 1
    return SearchArgs(
        n, dur, prio, oblig,
        child_start, child_agents, child_stale,
        order, dens_pos,
        _fenwick([dur[i] for i in order]), _fenwick([prio[i] for i in order]),
        1 << (n.bit_length() - 1) if n else 0,
        _suffix_sums(stalest), _suffix_sums([t * o for t, o in zip(dur, oblig)]),
        rank_to_idx, rank, sum(packed.budget_us),
        # Traversal state at the root: pos, assign, residual, acc, ctl, bnd.
        [0] * (n + 1), [-1] * n, list(packed.budget_us),
        [0, 0, 0], [0, 0], [0] * (3 * (n + 1)),
        list(incumbent), list(packed.objective_units(incumbent)),
    )


def warmup(backend: str = "auto") -> str:
    """The backend a solve would use; the Python kernel needs no compiling."""
    return resolve_backend(backend)
