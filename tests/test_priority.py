"""Priority formula: staleness, decayed failures, weighted combination."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from cisched import (
    ExecutionRecord,
    HistoryStore,
    Outcome,
    PriorityWeights,
    compute_priority,
    fail_score,
    prioritize_all,
    staleness,
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


def test_staleness_of_never_executed_test_is_one():
    assert staleness("t0", HistoryStore(), 5) == 1.0


def test_staleness_counts_cycles_since_last_run():
    store = history_with([Outcome.PASS], start_cycle=3)
    # Last ran in cycle 3; four cycles stale at cycle 7 with cap 20.
    assert staleness("t0", store, 7, 20) == pytest.approx(4 / 20)
    assert staleness("t0", store, 3, 20) == 0.0


def test_staleness_saturates_at_cap():
    store = history_with([Outcome.PASS])
    assert staleness("t0", store, 25, 20) == 1.0
    assert staleness("t0", store, 20, 20) == 1.0


def test_staleness_rejects_bad_inputs():
    store = history_with([Outcome.PASS], start_cycle=5)
    with pytest.raises(ValueError):
        staleness("t0", store, 3)
    with pytest.raises(ValueError):
        staleness("t0", store, 7, 0)


def test_fail_score_no_history_is_zero():
    assert fail_score("t0", HistoryStore(), 5, 0.5) == 0.0


def test_fail_score_single_recent_failure():
    store = history_with([Outcome.FAIL])
    # Geometric weights 1, .5, .25, .125, .0625 sum to 1.9375; only the
    # newest slot is a failure.
    assert fail_score("t0", store, 5, 0.5) == pytest.approx(1 / 1.9375)


def test_fail_score_decays_older_failures():
    store = history_with([Outcome.PASS, Outcome.FAIL, Outcome.FAIL])
    assert fail_score("t0", store, 5, 0.5) == pytest.approx(1.5 / 1.9375)
    older = history_with([Outcome.FAIL, Outcome.PASS, Outcome.PASS])
    newer = history_with([Outcome.PASS, Outcome.PASS, Outcome.FAIL])
    assert fail_score("t0", newer, 5, 0.5) > fail_score("t0", older, 5, 0.5)


def test_fail_score_all_failures_is_one():
    store = history_with([Outcome.FAIL] * 5)
    assert fail_score("t0", store, 5, 0.5) == pytest.approx(1.0)


def test_fail_score_rejects_bad_inputs():
    store = history_with([Outcome.PASS])
    with pytest.raises(ValueError):
        fail_score("t0", store, 0, 0.5)
    with pytest.raises(ValueError):
        fail_score("t0", store, 5, 1.0)


def test_compute_priority_combines_terms():
    # Never executed (staleness 1), half of d_max (duration term .5), no
    # failures, static .5: (.4 + .1 + 0 + .25) / 1.5 = .5 exactly.
    test = make_test("t1", duration=2.0, static=0.5)
    got = compute_priority(test, HistoryStore(), PriorityWeights(), 5, d_max=4.0)
    assert got.test is test
    assert got.priority == pytest.approx(0.5)


def test_compute_priority_duration_sign_flips():
    test = make_test("t2", duration=4.0, static=0.25)
    store = history_with([Outcome.PASS], test_id="t2", start_cycle=4)
    weights = PriorityWeights(shorter_is_higher=False)
    # staleness 1/20, duration term 1.0 (longest), no failures, static .25:
    # (.4*.05 + .2*1 + 0 + .5*.25) / 1.5 = .23.
    got = compute_priority(test, store, weights, 5, d_max=4.0)
    assert got.priority == pytest.approx(0.23)
    shorter = compute_priority(test, store, PriorityWeights(), 5, d_max=4.0)
    assert shorter.priority < got.priority


def test_compute_priority_zero_weights_gives_zero():
    weights = PriorityWeights(w_staleness=0, w_duration=0, w_results=0, w_static=0)
    got = compute_priority(make_test("t0"), HistoryStore(), weights, 0, d_max=1.0)
    assert got.priority == 0.0


def test_compute_priority_rejects_bad_d_max():
    with pytest.raises(ValueError):
        compute_priority(make_test("t0"), HistoryStore(), PriorityWeights(), 0, d_max=0.0)


def test_prioritize_all_sorts_by_priority_then_id():
    # Static-only weights make the priorities 0.9 / 0.1 / 0.5 directly.
    weights = PriorityWeights(w_staleness=0, w_duration=0, w_results=0, w_static=1.0)
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
    PriorityWeights().validate()
    with pytest.raises(ValueError):
        PriorityWeights(history_window=0).validate()
    with pytest.raises(ValueError):
        PriorityWeights(decay=1.0).validate()
    with pytest.raises(ValueError):
        PriorityWeights(staleness_cap=0).validate()
    assert PriorityWeights().weight_sum == pytest.approx(1.5)


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
    test = make_test("t0", duration=duration, static=static)
    got = compute_priority(test, store, PriorityWeights(), current, d_max=50.0)
    assert 0.0 <= got.priority <= 1.0
