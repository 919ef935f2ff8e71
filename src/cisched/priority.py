"""Effective test priority: weighted sum of staleness, duration, recent results, and static rank."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from cisched.domain import HistoryStore, TestCase


@dataclass(frozen=True)
class PriorityWeights:
    """Weights and knobs of the priority formula.

    All weights must be finite and >= 0. Each weighs a term in [0, 1]:
    staleness, the cycles since the test last ran over ``staleness_cap``,
    saturated at 1.0 (1.0 if it never ran); the duration ratio, or one minus
    it if ``shorter_is_higher``; the fail score, the newest
    ``history_window`` results weighed by ``decay ** j``, newest first, the
    failures' weight over the whole window's; and the static priority.
    """

    w_staleness: float = 0.4
    w_duration: float = 0.2
    w_results: float = 0.4
    w_static: float = 0.5
    history_window: int = 5
    decay: float = 0.5
    staleness_cap: int = 20
    shorter_is_higher: bool = True

    def __post_init__(self) -> None:
        for name in ("w_staleness", "w_duration", "w_results", "w_static"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        if self.history_window < 1:
            raise ValueError("history_window must be >= 1")
        if not 0.0 < self.decay < 1.0:
            raise ValueError("decay must be in (0, 1)")
        if self.staleness_cap < 1:
            raise ValueError("staleness_cap must be >= 1")


@dataclass(frozen=True)
class PrioritizedTest:
    """A test together with its effective priority in [0, 1]."""

    test: TestCase
    priority: float


def prioritize_all(
    tests: Sequence[TestCase],
    history: HistoryStore,
    weights: PriorityWeights,
    current_cycle: int,
) -> list[PrioritizedTest]:
    """Prioritize every test, sorted by descending priority with id as tie-break.

    A priority is the weighted mean of the four terms that
    :class:`PriorityWeights` describes, clamped to [0, 1], or 0.0 when every
    weight is 0. The duration term divides by the largest ``avg_duration``
    among ``tests``.
    """
    if not tests:
        return []
    d_max = max(t.avg_duration for t in tests)
    if d_max <= 0:
        raise ValueError("the largest avg_duration must be > 0")
    total = weights.w_staleness + weights.w_duration + weights.w_results + weights.w_static
    if total == 0.0:
        return sorted((PrioritizedTest(t, 0.0) for t in tests), key=lambda p: p.test.id)
    cap, window = weights.staleness_cap, weights.history_window
    # Added left to right, not by sum(), whose float rounding changed in
    # Python 3.12: the priorities must be the same bytes on every version.
    powers = [weights.decay**j for j in range(window)]
    denominator = 0.0
    for power in powers:
        denominator += power
    prioritized = []
    for t in tests:
        last = history.last.get(t.id)
        if last is None:
            stale = 1.0
        elif current_cycle < last:
            raise ValueError("current_cycle precedes the test's last execution")
        else:
            stale = min(current_cycle - last, cap) / cap
        ratio = t.avg_duration / d_max
        numerator = 0.0
        for j, letter in enumerate(history.fails.get(t.id, "")[:-window - 1:-1]):
            if letter == "f":
                numerator += powers[j]
        raw = (
            weights.w_staleness * stale
            + weights.w_duration * (1.0 - ratio if weights.shorter_is_higher else ratio)
            + weights.w_results * (numerator / denominator)
            + weights.w_static * t.static_priority
        ) / total
        prioritized.append(PrioritizedTest(t, min(1.0, max(0.0, raw))))
    prioritized.sort(key=lambda p: (-p.priority, p.test.id))
    return prioritized
