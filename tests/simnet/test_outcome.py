"""Typed RoundOutcome and the deprecated ``completed`` compatibility."""

import numpy as np
import pytest

from repro.simnet import (
    COMPLETED,
    LEADER_ISOLATED,
    OUTCOME_COMPLETED,
    ROUND_STATUSES,
    TIMED_OUT,
    UNRECOVERABLE_DROPOUT,
    RoundOutcome,
)


class TestRoundOutcome:
    def test_statuses_are_exhaustive(self):
        assert set(ROUND_STATUSES) == {
            COMPLETED, TIMED_OUT, UNRECOVERABLE_DROPOUT, LEADER_ISOLATED,
        }

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError, match="unknown round status"):
            RoundOutcome("exploded")

    def test_ok_and_degraded_are_complements(self):
        assert OUTCOME_COMPLETED.ok and not OUTCOME_COMPLETED.degraded
        failed = RoundOutcome(TIMED_OUT, "budget gone")
        assert failed.degraded and not failed.ok

    def test_str_includes_the_reason(self):
        assert str(RoundOutcome(LEADER_ISOLATED, "partition")) == \
            "leader_isolated(partition)"
        assert str(OUTCOME_COMPLETED) == "completed"


class TestOneResultType:
    """Both actor entry points report through the same dataclass."""

    def test_sac_and_wire_rounds_return_actor_round_results(self):
        from repro.core.topology import Topology
        from repro.core.wire_round import run_two_layer_wire_round
        from repro.secure import ActorRoundResult, run_sac_protocol

        models = [np.random.default_rng(i).normal(size=8) for i in range(6)]
        good = run_sac_protocol(models[:4], k=3, seed=0)
        bad = run_sac_protocol(
            models[:4], k=3, seed=0, crash_at={1: 0.0, 2: 0.0}
        )
        wire = run_two_layer_wire_round(
            Topology.by_group_count(6, 2), models, k=2, seed=0
        )
        for result in (good, bad, wire):
            assert type(result) is ActorRoundResult
            # The pre-outcome boolean is gone; ``outcome.ok`` is the test.
            assert not hasattr(result, "completed")
            assert result.bits_sent == sum(result.bits_by_kind.values())
            assert result.heap_stats["events_processed"] > 0
        assert good.outcome.ok and wire.outcome.ok
        assert bad.outcome.degraded and bad.average is None
        assert bad.end_time_ms == 100.0  # the first liveness-watch tick
