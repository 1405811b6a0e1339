"""Hypothesis property suite: random faults never break the invariants.

Under the reliable transport, FT-SAC and the two-layer wire round must —
for ANY loss rate in (0, 0.3] and ANY non-leader crash time — either
complete with the exact fault-free aggregate or degrade to a typed
outcome.  They must never idle to the blunt ``round_timeout_ms``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import Crash, FaultSchedule, LossWindow, check_liveness, check_safety
from repro.core.topology import Topology
from repro.core.wire_round import run_two_layer_wire_round
from repro.secure.protocol import run_sac_protocol

pytestmark = pytest.mark.chaos

#: small budget so exhaustion types well before the round timeout.
TRANSPORT_OPTS = {"max_attempts": 6}


def sac_models(n, params=16, seed=0):
    return [
        np.random.default_rng([seed, i]).normal(size=params) for i in range(n)
    ]


class TestSacUnderChaos:
    @given(
        loss_rate=st.floats(0.01, 0.3),
        crash_t=st.floats(0.0, 120.0),
        victim=st.integers(1, 5),
        seed=st.integers(0, 1_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_loss_plus_one_crash_safe_and_live(
        self, loss_rate, crash_t, victim, seed
    ):
        n, k = 6, 4
        models = sac_models(n, seed=seed)
        reference = run_sac_protocol(models, k=k, seed=seed)
        schedule = FaultSchedule([
            Crash(crash_t, victim),
            LossWindow(0.0, 120.0, loss_rate),
        ])
        result = run_sac_protocol(
            models, k=k, seed=seed, schedule=schedule,
            transport="reliable", transport_opts=dict(TRANSPORT_OPTS),
            round_timeout_ms=5_000.0,
        )
        assert check_safety(result, reference.average).ok, result.outcome
        assert check_liveness(result).ok, result.outcome
        if result.finish_time_ms is not None:
            assert result.finish_time_ms <= 5_000.0

    @given(loss_rate=st.floats(0.01, 0.3), seed=st.integers(0, 1_000))
    @settings(max_examples=15, deadline=None)
    def test_pure_loss_always_completes_bit_identical(self, loss_rate, seed):
        n, k = 6, 4
        models = sac_models(n, seed=seed)
        reference = run_sac_protocol(models, k=k, seed=seed)
        result = run_sac_protocol(
            models, k=k, seed=seed, loss_rate=loss_rate,
            transport="reliable", round_timeout_ms=5_000.0,
        )
        # no crashes: the transport must always push the round through
        assert result.outcome.ok, result.outcome
        assert np.array_equal(result.average, reference.average)


class TestTwoLayerUnderChaos:
    @given(
        loss_rate=st.floats(0.01, 0.3),
        crash_t=st.floats(0.0, 150.0),
        victim_idx=st.integers(0, 5),
        seed=st.integers(0, 1_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_loss_plus_one_follower_crash_safe_and_live(
        self, loss_rate, crash_t, victim_idx, seed
    ):
        topology = Topology.by_group_size(8, 4)
        followers = [
            p for p in range(topology.n_peers) if p not in topology.leaders
        ]
        victim = followers[victim_idx % len(followers)]
        models = sac_models(topology.n_peers, seed=seed)
        reference = run_two_layer_wire_round(topology, models, k=3, seed=seed)
        schedule = FaultSchedule([
            Crash(crash_t, victim),
            LossWindow(0.0, 150.0, loss_rate),
        ])
        result = run_two_layer_wire_round(
            topology, models, k=3, seed=seed, schedule=schedule,
            transport="reliable", transport_opts=dict(TRANSPORT_OPTS),
            round_timeout_ms=8_000.0,
        )
        assert check_safety(result, reference.average).ok, result.outcome
        assert check_liveness(result).ok, result.outcome
        if result.finish_time_ms is not None:
            assert result.finish_time_ms <= 8_000.0

    @given(loss_rate=st.floats(0.01, 0.3), seed=st.integers(0, 1_000))
    @settings(max_examples=10, deadline=None)
    def test_pure_loss_always_completes_bit_identical(self, loss_rate, seed):
        topology = Topology.by_group_size(8, 4)
        models = sac_models(topology.n_peers, seed=seed)
        reference = run_two_layer_wire_round(topology, models, k=3, seed=seed)
        result = run_two_layer_wire_round(
            topology, models, k=3, seed=seed, loss_rate=loss_rate,
            transport="reliable", round_timeout_ms=8_000.0,
        )
        assert result.outcome.ok, result.outcome
        assert np.array_equal(result.average, reference.average)
