"""Hypothesis property suite: random faults never break the invariants.

Under the reliable transport, FT-SAC and the two-layer wire round must —
for ANY loss rate in (0, 0.3] and ANY non-leader crash time — either
complete with the exact fault-free aggregate or degrade to a typed
outcome.  They must never idle to the blunt ``round_timeout_ms``.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chaos import Crash, FaultSchedule, LossWindow, check_liveness, check_safety
from repro.core.topology import Topology
from repro.core.wire_round import run_two_layer_wire_round
from repro.secure.protocol import run_sac_protocol
from repro.simnet.outcome import TIMED_OUT

pytestmark = pytest.mark.chaos

#: small budget so exhaustion types well before the round timeout.
TRANSPORT_OPTS = {"max_attempts": 6}


def sized_budget(loss_rate, sends, hops=2, delay_ms=15.0, watch_ms=100.0):
    """``(max_attempts, round_timeout_ms)`` under which a pure-loss round
    misses completion with probability at most 1e-9.

    A send is undelivered only if every one of its attempts is lost, so a
    union bound over the fault-free round's ``sends`` gives the attempts.
    Recovery fetches only add routes to a subtotal.  The deadline lets
    each of the round's ``hops`` chained hops land on its last attempt —
    ``base_rto * (2**(attempts-1) - 1) + delay`` with the runners'
    ``base_rto = 4 * delay`` and backoff 2 — plus one watch tick.  A SAC
    round chains two hops (share, then subtotal); a two-layer round five
    (share, subtotal, upload, then two broadcasts).
    """
    attempts = max(8, math.ceil(math.log(1e-9 / sends) / math.log(loss_rate)))
    hop = 4.0 * delay_ms * (2 ** (attempts - 1) - 1) + delay_ms
    return attempts, hops * hop + watch_ms


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
    @example(loss_rate=0.28125, seed=149)
    @settings(max_examples=15, deadline=None)
    def test_pure_loss_always_completes_bit_identical(self, loss_rate, seed):
        n, k = 6, 4
        models = sac_models(n, seed=seed)
        reference = run_sac_protocol(models, k=k, seed=seed)
        attempts, deadline = sized_budget(loss_rate, reference.messages_sent)
        result = run_sac_protocol(
            models, k=k, seed=seed, loss_rate=loss_rate,
            transport="reliable", transport_opts={"max_attempts": attempts},
            round_timeout_ms=deadline,
        )
        # no crashes: a budget sized from the loss rate pushes the round
        # through
        assert result.outcome.ok, result.outcome
        assert np.array_equal(result.average, reference.average)

    def test_default_budget_times_out_where_the_sized_one_completes(self):
        """Loss 0.28125 at seed 149: under the default 8 attempts and a
        5 s deadline the round degrades to a typed timeout (one send lands
        on its 8th attempt, 7.6 s in); the sized budget completes it."""
        models = sac_models(6, seed=149)
        reference = run_sac_protocol(models, k=4, seed=149)
        lossy = dict(k=4, seed=149, loss_rate=0.28125, transport="reliable")
        default = run_sac_protocol(models, round_timeout_ms=5_000.0, **lossy)
        assert default.outcome.status == TIMED_OUT
        assert default.average is None
        attempts, deadline = sized_budget(0.28125, reference.messages_sent)
        sized = run_sac_protocol(
            models, transport_opts={"max_attempts": attempts},
            round_timeout_ms=deadline, **lossy,
        )
        assert sized.outcome.ok, sized.outcome
        assert np.array_equal(sized.average, reference.average)


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
    @example(loss_rate=0.3, seed=763)
    @settings(max_examples=10, deadline=None)
    def test_pure_loss_always_completes_bit_identical(self, loss_rate, seed):
        topology = Topology.by_group_size(8, 4)
        models = sac_models(topology.n_peers, seed=seed)
        reference = run_two_layer_wire_round(topology, models, k=3, seed=seed)
        attempts, deadline = sized_budget(
            loss_rate, reference.messages_sent, hops=5)
        result = run_two_layer_wire_round(
            topology, models, k=3, seed=seed,
            schedule=FaultSchedule([LossWindow(0.0, deadline, loss_rate)]),
            transport="reliable", transport_opts={"max_attempts": attempts},
            round_timeout_ms=deadline,
        )
        assert result.outcome.ok, result.outcome
        assert np.array_equal(result.average, reference.average)

    def test_default_budget_times_out_where_the_sized_one_completes(self):
        """Loss 0.3 at seed 763: under the default 8 attempts and an 8 s
        deadline the round degrades to a typed timeout; the budget sized
        for five chained hops completes it."""
        topology = Topology.by_group_size(8, 4)
        models = sac_models(topology.n_peers, seed=763)
        reference = run_two_layer_wire_round(topology, models, k=3, seed=763)
        attempts, deadline = sized_budget(
            0.3, reference.messages_sent, hops=5)
        lossy = dict(
            k=3, seed=763, transport="reliable",
            schedule=FaultSchedule([LossWindow(0.0, deadline, 0.3)]),
        )
        default = run_two_layer_wire_round(
            topology, models, round_timeout_ms=8_000.0, **lossy)
        assert default.outcome.status == TIMED_OUT
        sized = run_two_layer_wire_round(
            topology, models, transport_opts={"max_attempts": attempts},
            round_timeout_ms=deadline, **lossy,
        )
        assert sized.outcome.ok, sized.outcome
        assert np.array_equal(sized.average, reference.average)
