"""Test plan emission, simulated agent execution, result collection.

Agents run in-process but speak only through the serialized plan and
result formats, so the controller/agent boundary stays honest. Outcomes
are drawn from per-entry random streams, which makes results independent
of the order agents execute in.
"""

from __future__ import annotations

import functools
import hashlib
import math
import re
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Mapping, Sequence

from cisched import codec
from cisched.domain import ExecutionRecord, HistoryStore, Outcome, TestAgent
from cisched.priority import PrioritizedTest
from cisched.scheduling import Schedule


@dataclass(frozen=True)
class PlanEntry:
    test_id: str
    planned_duration: float
    priority: float


@dataclass(frozen=True)
class TestPlan:
    """One agent's ordered work list for one cycle."""

    agent_id: str
    cycle: int
    entries: tuple[PlanEntry, ...]


@dataclass(frozen=True)
class AgentResult:
    """What one agent reports back after running its plan."""

    agent_id: str
    cycle: int
    records: tuple[ExecutionRecord, ...]
    log_lines: tuple[str, ...]


@dataclass(frozen=True)
class OutcomeModel:
    """Stochastic stand-in for real test execution.

    Each test fails with its configured defect probability (or the default)
    and takes its planned duration scaled by a uniform jitter factor. The
    seed pins every draw.
    """

    defect_probabilities: Mapping[str, float]
    default_probability: float = 0.05
    duration_jitter: tuple[float, float] = (0.9, 1.1)
    seed: int = 0

    def __post_init__(self) -> None:
        for test_id, p in self.defect_probabilities.items():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"defect probability for {test_id!r} not in [0, 1]: {p}")
        if not 0.0 <= self.default_probability <= 1.0:
            raise ValueError(f"default probability not in [0, 1]: {self.default_probability}")
        lo, hi = self.duration_jitter
        if not 0 < lo <= hi < math.inf:
            raise ValueError(f"jitter interval must satisfy 0 < lo <= hi < inf, got [{lo}, {hi}]")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")

    def probability_for(self, test_id: str) -> float:
        return self.defect_probabilities.get(test_id, self.default_probability)


def emit_test_plans(
    schedule: Schedule,
    prioritized: Sequence[PrioritizedTest],
    agents: Sequence[TestAgent],
    cycle: int,
) -> list[TestPlan]:
    """One plan per agent with work, in agent input order.

    Entries carry the planned duration and priority from the prioritized
    list and keep the schedule's descending-priority order; flattening the
    plans reproduces the schedule's assignments exactly.
    """
    by_id = {p.test.id: p for p in prioritized}
    plans = []
    for agent in agents:
        test_ids = schedule.assignments.get(agent.id, ())
        if not test_ids:
            continue
        entries = tuple(
            PlanEntry(
                test_id=t_id,
                planned_duration=by_id[t_id].test.avg_duration,
                priority=by_id[t_id].priority,
            )
            for t_id in test_ids
        )
        plans.append(TestPlan(agent_id=agent.id, cycle=cycle, entries=entries))
    return plans


def _entry_seed(label: str) -> int:
    return int.from_bytes(hashlib.blake2b(label.encode(), digest_size=8).digest(), "big")


def _words(value: int) -> list[int]:
    """value as SeedSequence reads an int: little-endian uint32 words, [0] for 0."""
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


# NumPy's SeedSequence (numpy/random/bit_generator.pyx: a pool of four
# uint32 words) and PCG64 (numpy/random/src/pcg64: O'Neill's 128-bit LCG
# with the XSL-RR output) reimplemented over arrays, so that one pass
# draws a whole plan's streams with the values numpy's objects give.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _hash_constants(hash_const: int, mult: int, count: int) -> tuple[list[int], list[int], int]:
    """The xor and multiplier constants of count successive hashes, and the constant after them."""
    xors, mults = [], []
    for _ in range(count):
        xors.append(hash_const)
        hash_const = hash_const * mult & _MASK32
        mults.append(hash_const)
    return xors, mults, hash_const


def _absorb(words: list[int]) -> tuple[list[int], int]:
    """SeedSequence.mix_entropy over four or more words: the pool and the next hash constant."""
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(word) for word in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool, hash_const


def _drawn_states() -> list[tuple[int, int, int]]:
    """PCG64's state at each of the two draws, as a*initstate + b*initseq + c mod 2**128.

    numpy seeds PCG64 with state 0 and inc = 2*initseq + 1, steps, adds
    initstate and steps again; each draw steps once and outputs the new
    state. Every step is linear in (initstate, initseq, 1).
    """
    inc = (0, 2, 1)

    def step(state: tuple[int, int, int]) -> tuple[int, int, int]:
        return tuple((x * _PCG_MULT + i) & _MASK128 for x, i in zip(state, inc))

    state = step((0, 0, 0))
    state = step(((state[0] + 1) & _MASK128, state[1], state[2]))
    first = step(state)
    return [first, step(first)]


@functools.cache
def _draw_constants() -> SimpleNamespace:
    """The array constants of _draw_streams, built on its first call.

    State word j of generate_state(4, uint64) sits at bit 64, 96, 0, 32 of
    initstate (j < 4) or initseq (j >= 4). Split into 16-bit halves, each
    drawn state is sum(half * coef) + c mod 2**128; with coef and c in
    32-bit limbs, every limb sum is below 2**53, so one uint64 matmul gives
    the limbs before their carries. Rows go limb by limb, then by draw.
    """
    import numpy as np

    gen_xors, gen_mults, _ = _hash_constants(_INIT_B, _MULT_B, 8)
    half_coefs, offsets = [], []
    for a, b, c in _drawn_states():
        word_coefs = [(a if j < 4 else b) << (64, 96, 0, 32)[j % 4] for j in range(8)]
        half_coefs.append([k << shift & _MASK128 for k in word_coefs for shift in (0, 16)])
        offsets.append(c)
    coefs = [[k >> 32 * limb & _MASK32 for k in row] for limb in range(4) for row in half_coefs]
    limbs = [c >> 32 * limb & _MASK32 for limb in range(4) for c in offsets]
    u32, u64 = np.uint32, np.uint64
    # Scalars are 0-d arrays, which numpy applies faster than Python ints.
    return SimpleNamespace(
        gen_xors=np.array(gen_xors, u32)[:, None],
        gen_mults=np.array(gen_mults, u32)[:, None],
        coefs=np.array(coefs, u64),
        limbs=np.array(limbs, u64)[:, None],
        mix_l=np.array(_MIX_MULT_L, u32),
        mix_r=np.array(_MIX_MULT_R, u32),
        low16=np.array(0xFFFF, u32),
        shift16=np.array(16, u32),
        low32=np.array(_MASK32, u64),
        shift11=np.array(11, u64),
        shift32=np.array(32, u64),
        shift58=np.array(58, u64),
        mask63=np.array(63, u64),
    )


@functools.cache
def _word_constants(hash_const: int):
    """Row constants for mixing one entropy word into all four pool words from hash_const."""
    import numpy as np

    xors, mults, hash_const = _hash_constants(hash_const, _MULT_A, 4)
    return np.array(xors, np.uint32)[:, None], np.array(mults, np.uint32)[:, None], hash_const


def _draw_streams(
    head: list[int], entry_seeds: list[int], lo: float, hi: float
) -> tuple[list[float], list[float]]:
    """random() and uniform(lo, hi) from each entry's stream, in one array pass.

    Entry k's stream is numpy's Generator(PCG64(SeedSequence(words))) with
    words = head + _words(entry_seeds[k]); the values are that Generator's,
    bit for bit. head holds at least three words.
    """
    import numpy as np  # imported here, so that importing cisched does not load numpy

    if not entry_seeds:
        return [], []
    k = _draw_constants()
    seeds = np.array(entry_seeds, np.uint64)
    low_words = (seeds & k.low32).astype(np.uint32)
    high_words = (seeds >> k.shift32).astype(np.uint32)

    def mix_word(pool, words, hash_const):
        xors, mults, hash_const = _word_constants(hash_const)
        hashed = (words ^ xors) * mults
        hashed ^= hashed >> k.shift16
        mixed = pool * k.mix_l - hashed * k.mix_r
        mixed ^= mixed >> k.shift16
        return mixed, hash_const

    if len(head) >= 4:
        pool, hash_const = _absorb(head)
        pool, hash_const = mix_word(np.array(pool, np.uint32)[:, None], low_words, hash_const)
    else:
        # The low word fills the pool, so its all-pairs mixing is per entry.
        absorbed = [_absorb(head + [word]) for word in low_words.tolist()]
        pool = np.array([entry_pool for entry_pool, _ in absorbed], np.uint32).T
        hash_const = absorbed[0][1]
    # A seed below 2**32 is one word long: its stream stops at the low word.
    mixed, _ = mix_word(pool, high_words, hash_const)
    pool = np.where(high_words != 0, mixed, pool)

    # generate_state(4, uint64): eight hashed uint32 words, cycling the pool.
    state = np.concatenate((pool, pool)) ^ k.gen_xors
    state *= k.gen_mults
    state ^= state >> k.shift16
    halves = np.empty((16, len(entry_seeds)), np.uint64)
    halves[0::2] = state & k.low16
    halves[1::2] = state >> k.shift16

    # Each drawn state's 64-bit halves (one row per draw), carrying the
    # limb sums with wrapping uint64 adds.
    sums = (k.coefs @ halves + k.limbs).reshape(4, 2, -1)
    low = sums[0] + (sums[1] << k.shift32)
    carry = ((sums[0] >> k.shift32) + sums[1]) >> k.shift32
    high = sums[2] + (sums[3] << k.shift32) + carry
    # XSL-RR: high xor low, rotated right by the state's top 6 bits.
    folded = high ^ low
    rot = high >> k.shift58
    output = folded >> rot | folded << (-rot & k.mask63)
    # next_double, then Generator.uniform's lo + (hi - lo) * next_double.
    doubles = (output >> k.shift11).astype(np.float64) * (1.0 / 9007199254740992.0)
    return doubles[0].tolist(), (lo + (hi - lo) * doubles[1]).tolist()


def execute_plan(plan: TestPlan, outcome_model: OutcomeModel) -> AgentResult:
    """Run one agent's plan against the outcome model.

    Every entry gets its own random stream keyed by (seed, agent, cycle,
    test): same inputs, same result, regardless of which other plans ran
    first. The outcome draw precedes the duration draw within a stream.
    """
    head = _words(outcome_model.seed) + _words(_entry_seed(plan.agent_id)) + _words(plan.cycle)
    lo, hi = outcome_model.duration_jitter
    fail_draws, jitters = _draw_streams(
        head, [_entry_seed(entry.test_id) for entry in plan.entries], lo, hi
    )
    records = []
    log_lines = []
    for entry, fail_draw, jitter in zip(plan.entries, fail_draws, jitters):
        failed = fail_draw < outcome_model.probability_for(entry.test_id)
        actual = entry.planned_duration * jitter
        outcome = Outcome.FAIL if failed else Outcome.PASS
        records.append(
            ExecutionRecord(
                test_id=entry.test_id,
                agent_id=plan.agent_id,
                cycle=plan.cycle,
                outcome=outcome,
                actual_duration=actual,
            )
        )
        log_lines.append(
            f"{entry.test_id}: {outcome.value} in {actual:.3f}s (planned {entry.planned_duration:.3f}s)"
        )
    return AgentResult(
        agent_id=plan.agent_id,
        cycle=plan.cycle,
        records=tuple(records),
        log_lines=tuple(log_lines),
    )


def collect_results(results: Sequence[AgentResult], history: HistoryStore) -> HistoryStore:
    """Merge all agents' results for the current cycle, then advance it.

    Single-writer barrier: call once per cycle after every agent finished.
    The merge is one all-or-nothing :meth:`HistoryStore.add_cycle`, in
    agent id order so errors do not depend on execution order.
    """
    for result in results:
        if result.cycle != history.current_cycle:
            raise ValueError(
                f"result for agent {result.agent_id!r} belongs to cycle {result.cycle}, "
                f"current cycle is {history.current_cycle}"
            )
    history.add_cycle(
        [rec for result in sorted(results, key=lambda r: r.agent_id) for rec in result.records]
    )
    return history


# A run directory holds one cycle_<n> directory per cycle, n in decimal
# without leading zeros; these functions alone name its entries.
_CYCLE_DIR = re.compile(r"cycle_(0|[1-9][0-9]*)")


def cycle_dir(out_dir: str | Path, cycle: int) -> Path:
    return Path(out_dir) / f"cycle_{cycle}"


def cycle_dirs(out_dir: str | Path) -> list[tuple[int, Path]]:
    """The run's cycle directories as (cycle, path), by cycle; other entries are skipped."""
    found = []
    for entry in Path(out_dir).glob("cycle_*"):
        match = _CYCLE_DIR.fullmatch(entry.name)
        if match:
            found.append((int(match[1]), entry))
    return sorted(found)


def plan_path(out_dir: str | Path, cycle: int, agent_id: str) -> Path:
    return cycle_dir(out_dir, cycle) / f"plan_{agent_id}.json"


def plan_paths(out_dir: str | Path, cycle: int) -> list[Path]:
    """Every plan file of the cycle, by file name."""
    return sorted(cycle_dir(out_dir, cycle).glob("plan_*.json"))


def result_path(out_dir: str | Path, cycle: int, agent_id: str) -> Path:
    return cycle_dir(out_dir, cycle) / f"result_{agent_id}.json"


def report_path(out_dir: str | Path, cycle: int) -> Path:
    return cycle_dir(out_dir, cycle) / "report.json"


def save_plan(plan: TestPlan, path: str | Path) -> None:
    codec.save(plan, path)


def load_plan(path: str | Path) -> TestPlan:
    return codec.load(TestPlan, path)


def save_result(result: AgentResult, path: str | Path) -> None:
    codec.save(result, path)


def load_result(path: str | Path) -> AgentResult:
    return codec.load(AgentResult, path)
