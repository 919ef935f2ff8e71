"""Priority formula: staleness, decayed failures, weighted combination."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from cisched import (
    ExecutionRecord,
    HistoryStore,
    Outcome,
    PriorityWeights,
    prioritize_all,
)

from helpers import make_test


def history_with(outcomes, test_id="t0", start_cycle=0):
    """The test ran once per cycle from start_cycle on; earlier cycles ran nothing."""
    store = HistoryStore()
    for _ in range(start_cycle):
        store.add_cycle([])
    for outcome in outcomes:
        store.add_cycle(
            [
                ExecutionRecord(
                    test_id=test_id,
                    agent_id="a0",
                    cycle=store.current_cycle,
                    outcome=outcome,
                    actual_duration=1.0,
                )
            ]
        )
    return store


def only(weight, **knobs):
    """Weights whose single nonzero weight is 1.0, so the priority is that term exactly."""
    zero = {"w_staleness": 0.0, "w_duration": 0.0, "w_results": 0.0, "w_static": 0.0}
    return PriorityWeights(**{**zero, weight: 1.0}, **knobs)


def priority_of(test_id, tests, store, weights, cycle):
    return {p.test.id: p.priority for p in prioritize_all(tests, store, weights, cycle)}[test_id]


def staleness(store, cycle, cap=20):
    return priority_of("t0", [make_test("t0")], store, only("w_staleness", staleness_cap=cap), cycle)


def fail_score(store, window, decay):
    weights = only("w_results", history_window=window, decay=decay)
    return priority_of("t0", [make_test("t0")], store, weights, store.current_cycle)


def test_staleness_of_never_executed_test_is_one():
    assert staleness(HistoryStore(), 5) == 1.0


def test_staleness_counts_cycles_since_last_run():
    store = history_with([Outcome.PASS], start_cycle=3)
    # Last ran in cycle 3; four cycles stale at cycle 7 with cap 20.
    assert staleness(store, 7, 20) == 4 / 20
    assert staleness(store, 4, 20) == 1 / 20
    assert staleness(store, 3, 20) == 0.0


def test_staleness_saturates_at_cap():
    store = history_with([Outcome.PASS])
    assert staleness(store, 25, 20) == 1.0
    assert staleness(store, 20, 20) == 1.0


def test_staleness_rejects_bad_inputs():
    store = history_with([Outcome.PASS], start_cycle=5)
    with pytest.raises(ValueError, match="precedes"):
        staleness(store, 3)
    with pytest.raises(ValueError, match="staleness_cap"):
        PriorityWeights(staleness_cap=0)


def test_fail_score_no_history_is_zero():
    assert fail_score(HistoryStore(), 5, 0.5) == 0.0


def test_fail_score_single_recent_failure():
    store = history_with([Outcome.FAIL])
    # Geometric weights 1, .5, .25, .125, .0625 sum to 1.9375; only the
    # newest slot is a failure.
    assert fail_score(store, 5, 0.5) == 1 / 1.9375


def test_fail_score_decays_older_failures():
    store = history_with([Outcome.PASS, Outcome.FAIL, Outcome.FAIL])
    assert fail_score(store, 5, 0.5) == 1.5 / 1.9375
    older = history_with([Outcome.FAIL, Outcome.PASS, Outcome.PASS])
    newer = history_with([Outcome.PASS, Outcome.PASS, Outcome.FAIL])
    assert fail_score(newer, 5, 0.5) > fail_score(older, 5, 0.5)


def test_fail_score_all_failures_is_one():
    store = history_with([Outcome.FAIL] * 5)
    assert fail_score(store, 5, 0.5) == 1.0
    # Results older than the window are not counted.
    store = history_with([Outcome.FAIL] * 3 + [Outcome.PASS] * 5)
    assert fail_score(store, 5, 0.5) == 0.0


def test_fail_score_rejects_bad_inputs():
    with pytest.raises(ValueError, match="history_window"):
        PriorityWeights(history_window=0)
    for decay in (0.0, 1.0):
        with pytest.raises(ValueError, match="decay"):
            PriorityWeights(decay=decay)


def test_compute_priority_combines_terms():
    # Never executed (staleness 1), half of the longest duration 4.0
    # (duration term .5), no failures, static .5: (.4 + .1 + 0 + .25) / 1.5 = .5.
    test = make_test("t1", duration=2.0, static=0.5)
    ranked = prioritize_all([test, make_test("tmax", duration=4.0)], HistoryStore(), PriorityWeights(), 5)
    got = next(p for p in ranked if p.test.id == "t1")
    assert got.test is test
    assert got.priority == pytest.approx(0.5)


def test_compute_priority_duration_sign_flips():
    test = make_test("t2", duration=4.0, static=0.25)
    store = history_with([Outcome.PASS], test_id="t2", start_cycle=4)
    weights = PriorityWeights(shorter_is_higher=False)
    # staleness 1/20, duration term 1.0 (longest), no failures, static .25:
    # (.4*.05 + .2*1 + 0 + .5*.25) / 1.5 = .23.
    assert priority_of("t2", [test], store, weights, 5) == pytest.approx(0.23)
    assert priority_of("t2", [test], store, PriorityWeights(), 5) < 0.23
    # With a single duration weight the term is exactly the ratio to the
    # longest test, or one minus it.
    tests = [make_test("t1", duration=1.0), make_test("tmax", duration=4.0)]
    longer = only("w_duration", shorter_is_higher=False)
    assert priority_of("t1", tests, HistoryStore(), longer, 0) == 0.25
    assert priority_of("t1", tests, HistoryStore(), only("w_duration"), 0) == 0.75


def test_compute_priority_zero_weights_gives_zero():
    weights = PriorityWeights(w_staleness=0, w_duration=0, w_results=0, w_static=0)
    tests = [make_test("t1", static=0.9), make_test("t0")]
    ranked = prioritize_all(tests, history_with([Outcome.FAIL]), weights, 0)
    assert [(p.test.id, p.priority) for p in ranked] == [("t0", 0.0), ("t1", 0.0)]


def test_compute_priority_rejects_bad_d_max():
    for duration in (0.0, -1.0):
        with pytest.raises(ValueError, match="avg_duration"):
            prioritize_all([make_test("t0", duration=duration)], HistoryStore(), PriorityWeights(), 0)


def test_prioritize_all_sorts_by_priority_then_id():
    # Static-only weights make the priorities 0.9 / 0.1 / 0.5 directly.
    weights = only("w_static")
    tests = [
        make_test("tx", static=0.9),
        make_test("ty", static=0.1),
        make_test("tz", static=0.5),
    ]
    ranked = prioritize_all(tests, HistoryStore(), weights, 0)
    assert [p.test.id for p in ranked] == ["tx", "tz", "ty"]
    assert [p.priority for p in ranked] == [0.9, 0.5, 0.1]

    ties = [make_test("tb", static=0.5), make_test("ta", static=0.5)]
    ranked = prioritize_all(ties, HistoryStore(), weights, 0)
    assert [p.test.id for p in ranked] == ["ta", "tb"]


def test_prioritize_all_empty_and_validation():
    assert prioritize_all([], HistoryStore(), PriorityWeights(), 0) == []
    with pytest.raises(ValueError):
        prioritize_all([make_test("t0")], HistoryStore(), PriorityWeights(w_static=-1), 0)


def test_priority_weights_validate():
    PriorityWeights()
    for bad in (
        {"history_window": 0},
        {"decay": 1.0},
        {"staleness_cap": 0},
        {"w_results": -0.1},
        {"w_duration": float("inf")},
        {"w_static": float("nan")},
    ):
        with pytest.raises(ValueError):
            PriorityWeights(**bad)


@given(
    duration=st.floats(0.1, 50.0),
    static=st.floats(0.0, 1.0),
    current=st.integers(0, 100),
    outcomes=st.lists(st.sampled_from([Outcome.PASS, Outcome.FAIL]), max_size=12),
)
def test_priority_stays_in_unit_interval(duration, static, current, outcomes):
    store = HistoryStore()
    for i, outcome in enumerate(outcomes):
        store.add_cycle([ExecutionRecord("t0", "a0", i, outcome, 1.0)])
    current = max(current, store.current_cycle)
    tests = [make_test("t0", duration=duration, static=static), make_test("tmax", duration=50.0)]
    assert 0.0 <= priority_of("t0", tests, store, PriorityWeights(), current) <= 1.0


def reference_priority(test, store, weights, cycle, d_max):
    """The priority formula written out term by term."""
    total = weights.w_staleness + weights.w_duration + weights.w_results + weights.w_static
    if total == 0.0:
        return 0.0
    last = store.last.get(test.id)
    cap = weights.staleness_cap
    stale = 1.0 if last is None else min(cycle - last, cap) / cap
    ratio = test.avg_duration / d_max
    duration = 1.0 - ratio if weights.shorter_is_higher else ratio
    newest_first = store.fails.get(test.id, "")[::-1]
    numerator = denominator = 0.0
    for j in range(weights.history_window):
        denominator += weights.decay**j
        if j < len(newest_first) and newest_first[j] == "f":
            numerator += weights.decay**j
    raw = (
        weights.w_staleness * stale
        + weights.w_duration * duration
        + weights.w_results * (numerator / denominator)
        + weights.w_static * test.static_priority
    ) / total
    return min(1.0, max(0.0, raw))


@given(
    weights=st.builds(
        PriorityWeights,
        w_staleness=st.sampled_from([0.0, 0.4]) | st.floats(0.0, 3.0),
        w_duration=st.sampled_from([0.0, 0.2]) | st.floats(0.0, 3.0),
        w_results=st.sampled_from([0.0, 0.4]) | st.floats(0.0, 3.0),
        w_static=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 3.0),
        history_window=st.integers(1, 8),
        decay=st.floats(0.01, 0.99),
        staleness_cap=st.integers(1, 30),
        shorter_is_higher=st.booleans(),
    ),
    cases=st.lists(st.tuples(st.floats(0.1, 50.0), st.floats(0.0, 1.0)), min_size=1, max_size=4),
    cycles=st.lists(st.lists(st.sampled_from([None, Outcome.PASS, Outcome.FAIL]), min_size=4, max_size=4), max_size=12),
    extra=st.integers(0, 30),
)
def test_prioritize_all_matches_the_written_out_formula(weights, cases, cycles, extra):
    tests = [make_test(f"t{i}", duration=d, static=s) for i, (d, s) in enumerate(cases)]
    store = HistoryStore()
    for outcomes in cycles:
        store.add_cycle(
            [
                ExecutionRecord(t.id, "a0", store.current_cycle, outcome, 1.0)
                for t, outcome in zip(tests, outcomes)
                if outcome is not None
            ]
        )
    cycle = store.current_cycle + extra
    d_max = max(d for d, _ in cases)
    expected = sorted(
        ((-reference_priority(t, store, weights, cycle, d_max), t.id) for t in tests)
    )
    ranked = prioritize_all(tests, store, weights, cycle)
    assert [(-p.priority, p.test.id) for p in ranked] == expected
