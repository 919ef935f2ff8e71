"""Effective test priority: weighted sum of staleness, duration, recent results, and static rank."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from cisched.domain import HistoryStore, TestCase


@dataclass(frozen=True)
class PriorityWeights:
    """Weights and knobs of the priority formula.

    All weights must be >= 0. ``history_window`` is the number of most
    recent results the fail score looks at, ``decay`` the per-step geometric
    discount. ``staleness_cap`` saturates the cycles-since-last-run term and
    ``shorter_is_higher`` picks the sign of the duration term.
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
        self.validate()

    def validate(self) -> None:
        for name in ("w_staleness", "w_duration", "w_results", "w_static"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        if self.history_window < 1:
            raise ValueError("history_window must be >= 1")
        if not 0.0 < self.decay < 1.0:
            raise ValueError("decay must be in (0, 1)")
        if self.staleness_cap < 1:
            raise ValueError("staleness_cap must be >= 1")

    @property
    def weight_sum(self) -> float:
        return self.w_staleness + self.w_duration + self.w_results + self.w_static


@dataclass(frozen=True)
class PrioritizedTest:
    """A test together with its effective priority in [0, 1]."""

    test: TestCase
    priority: float


def staleness(
    test_id: str, history: HistoryStore, current_cycle: int, max_staleness_cap: int = 20
) -> float:
    """Normalized cycles since the last execution; 1.0 for never-executed tests."""
    if max_staleness_cap < 1:
        raise ValueError("max_staleness_cap must be >= 1")
    last = history.last_execution(test_id)
    if last is None:
        return 1.0
    if current_cycle < last:
        raise ValueError("current_cycle precedes the test's last execution")
    return min(current_cycle - last, max_staleness_cap) / max_staleness_cap


def fail_score(test_id: str, history: HistoryStore, window: int, decay: float) -> float:
    """Geometrically decayed failure rate over the most recent ``window`` results.

    The newest result has index 0. Missing results count as passes; a test
    with no history scores 0.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if not 0.0 < decay < 1.0:
        raise ValueError("decay must be in (0, 1)")
    fails = history.recent_fails(test_id, window)
    numerator = 0.0
    denominator = 0.0
    for j in range(window):
        denominator += decay**j
        if j < len(fails) and fails[j] == "f":
            numerator += decay**j
    return numerator / denominator


def compute_priority(
    test: TestCase,
    history: HistoryStore,
    weights: PriorityWeights,
    current_cycle: int,
    d_max: float,
) -> PrioritizedTest:
    """Combine the four priority terms into one value in [0, 1].

    ``d_max`` must be at least the largest avg_duration among the tests
    being prioritized together, so the duration term stays in [0, 1].
    """
    if d_max <= 0:
        raise ValueError("d_max must be > 0")
    total = weights.weight_sum
    if total == 0.0:
        return PrioritizedTest(test, 0.0)
    duration_ratio = test.avg_duration / d_max
    duration_term = 1.0 - duration_ratio if weights.shorter_is_higher else duration_ratio
    raw = (
        weights.w_staleness * staleness(test.id, history, current_cycle, weights.staleness_cap)
        + weights.w_duration * duration_term
        + weights.w_results * fail_score(test.id, history, weights.history_window, weights.decay)
        + weights.w_static * test.static_priority
    ) / total
    return PrioritizedTest(test, min(1.0, max(0.0, raw)))


def prioritize_all(
    tests: Sequence[TestCase],
    history: HistoryStore,
    weights: PriorityWeights,
    current_cycle: int,
) -> list[PrioritizedTest]:
    """Prioritize every test, sorted by descending priority with id as tie-break."""
    if not tests:
        return []
    d_max = max(t.avg_duration for t in tests)
    prioritized = [
        compute_priority(t, history, weights, current_cycle, d_max) for t in tests
    ]
    prioritized.sort(key=lambda p: (-p.priority, p.test.id))
    return prioritized
