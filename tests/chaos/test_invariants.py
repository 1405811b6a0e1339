"""Unit tests for the chaos safety/liveness invariant checkers."""

from types import SimpleNamespace

import numpy as np

from repro.chaos import check_liveness, check_safety
from repro.simnet import (
    OUTCOME_COMPLETED,
    TIMED_OUT,
    UNRECOVERABLE_DROPOUT,
    RoundOutcome,
)


def result(average, outcome):
    return SimpleNamespace(average=average, outcome=outcome)


GOOD = np.arange(4.0)


class TestSafety:
    def test_identical_completed_round_is_safe(self):
        verdict = check_safety(result(GOOD.copy(), OUTCOME_COMPLETED), GOOD.copy())
        assert verdict.ok
        assert "bit-identical" in verdict.detail

    def test_deviating_aggregate_fails(self):
        verdict = check_safety(result(GOOD + 1e-9, OUTCOME_COMPLETED), GOOD)
        assert not verdict.ok
        assert "deviates" in verdict.detail

    def test_completed_without_average_fails(self):
        assert not check_safety(result(None, OUTCOME_COMPLETED), GOOD).ok

    def test_degraded_round_must_not_expose_an_average(self):
        degraded = RoundOutcome(UNRECOVERABLE_DROPOUT, "peer 2 gone")
        assert check_safety(result(None, degraded), GOOD).ok
        verdict = check_safety(result(GOOD, degraded), GOOD)
        assert not verdict.ok
        assert "exposes" in verdict.detail

    def test_degraded_round_needs_no_reference(self):
        # The reference is read only when the round completed: callers
        # skip computing it for a degraded one.
        degraded = RoundOutcome(TIMED_OUT, "retransmit budget exhausted")
        assert check_safety(result(None, degraded), None).ok
        assert not check_safety(result(GOOD, degraded), None).ok


class TestLiveness:
    def test_completed_is_live(self):
        assert check_liveness(result(GOOD, OUTCOME_COMPLETED)).ok

    def test_typed_degradation_is_live(self):
        outcome = RoundOutcome(UNRECOVERABLE_DROPOUT, "share index 2 lost")
        verdict = check_liveness(result(None, outcome))
        assert verdict.ok
        assert "typed degradation" in verdict.detail

    def test_typed_timeout_is_live(self):
        outcome = RoundOutcome(
            TIMED_OUT, "retransmit budget exhausted towards peer 3"
        )
        assert check_liveness(result(None, outcome)).ok

    def test_blunt_round_timeout_is_a_hang(self):
        outcome = RoundOutcome(
            TIMED_OUT, "round timeout with subtotals missing for indices [1]"
        )
        verdict = check_liveness(result(None, outcome))
        assert not verdict.ok
        assert "hung" in verdict.detail
