"""Tests for the message-passing SAC protocol on the simulated network."""

import tracemalloc

import numpy as np
import pytest

from repro.core import Topology, run_two_layer_wire_round
from repro.secure.fault_tolerant import expected_ft_sac_bits
from repro.secure.protocol import run_sac_protocol


def make_models(n, size=8, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=size) for _ in range(n)]


class TestFailureFree:
    def test_result_equals_mean(self):
        models = make_models(5)
        result = run_sac_protocol(models, k=3)
        assert result.outcome.ok
        np.testing.assert_allclose(
            result.average, np.mean(models, axis=0), rtol=1e-10
        )

    def test_wire_bits_match_closed_form(self):
        """On-the-wire payload == {n(n-1)(n-k+1) + (k-1)}|w| + small
        control overhead (Sec. VII-B), for several (n, k)."""
        for n, k in [(3, 2), (5, 3), (5, 5), (4, 4)]:
            size = 50
            models = make_models(n, size=size)
            result = run_sac_protocol(models, k=k)
            assert result.outcome.ok
            payload = expected_ft_sac_bits(n, k, size)
            assert result.bits_sent == payload  # no recovery -> no overhead

    def test_finish_time_two_hops(self):
        """Failure-free round finishes in exactly 2 network hops."""
        result = run_sac_protocol(make_models(5), k=3, delay_ms=15.0)
        assert result.finish_time_ms == pytest.approx(30.0)

    def test_k1_leader_self_sufficient_after_one_hop(self):
        # k=1: everyone holds every share; the leader needs no subtotals.
        result = run_sac_protocol(make_models(4), k=1, delay_ms=15.0)
        assert result.outcome.ok
        assert result.finish_time_ms == pytest.approx(15.0)

    def test_different_leader(self):
        models = make_models(5)
        result = run_sac_protocol(models, k=3, leader=2)
        np.testing.assert_allclose(result.average, np.mean(models, axis=0))


class TestDropouts:
    def test_dropout_after_share_phase_recovers_exact_average(self):
        """The Fig. 3 scenario on the wire: a peer crashes after its
        bundles are in flight; the leader fetches its subtotal from a
        replica holder and the average still counts the crashed model."""
        models = make_models(3, size=6)
        result = run_sac_protocol(
            models, k=2, leader=1, crash_at={0: 20.0}, subtotal_timeout_ms=50.0
        )
        assert result.outcome.ok
        np.testing.assert_allclose(
            result.average, np.mean(models, axis=0), rtol=1e-10
        )
        assert 0 in result.recovered_shares

    def test_recovery_takes_extra_time(self):
        clean = run_sac_protocol(make_models(3), k=2, leader=1)
        dirty = run_sac_protocol(
            make_models(3), k=2, leader=1, crash_at={0: 20.0},
            subtotal_timeout_ms=50.0,
        )
        assert dirty.finish_time_ms > clean.finish_time_ms

    def test_recovery_costs_extra_messages(self):
        clean = run_sac_protocol(make_models(5), k=3, leader=2)
        dirty = run_sac_protocol(
            make_models(5), k=3, leader=2, crash_at={0: 20.0},
            subtotal_timeout_ms=50.0,
        )
        assert dirty.messages_sent > clean.messages_sent

    def test_max_tolerable_dropouts(self):
        models = make_models(5, size=4)
        result = run_sac_protocol(
            models, k=3, leader=2, crash_at={0: 20.0, 4: 20.0},
            subtotal_timeout_ms=50.0, round_timeout_ms=5_000.0,
        )
        assert result.outcome.ok
        np.testing.assert_allclose(result.average, np.mean(models, axis=0))

    def test_crash_before_share_phase_fails_round(self):
        """A peer that dies before distributing shares makes the round
        unrecoverable — the caller must restart with the survivors."""
        models = make_models(3)
        result = run_sac_protocol(
            models, k=2, leader=1, crash_at={0: 0.0},
            subtotal_timeout_ms=50.0, round_timeout_ms=1_000.0,
        )
        assert not result.outcome.ok
        assert result.average is None

    @pytest.mark.parametrize("share_codec", ["dense", "seed"])
    @pytest.mark.parametrize("transport,bits_over_clean,retransmits", [
        # The replica's reply (|w|) stands in for the primary that died
        # on the wire; the fetch itself adds the 64-bit request.
        ("fire_and_forget", 64.0, 0),
        # Reliable: 4 retransmissions to the dead peer, fewer ACKs.
        ("reliable", -256.0, 4),
    ])
    def test_replica_computed_on_request_is_bit_identical(
        self, share_codec, transport, bits_over_clean, retransmits
    ):
        """Peer 3 sends its primary and dies; the leader fetches index 3
        from a replica holder that never computed it before the request
        arrived.  Same average bits as the fault-free round, and the
        wire totals the eager implementation had."""
        models = make_models(5, size=64)
        kw = dict(k=3, seed=3, transport=transport, share_codec=share_codec)
        clean = run_sac_protocol(models, **kw)
        dirty = run_sac_protocol(
            models, crash_at={3: 20.0}, subtotal_timeout_ms=50.0, **kw
        )
        assert dirty.outcome.ok
        assert dirty.recovered_shares == (3,)
        np.testing.assert_array_equal(dirty.average, clean.average)
        assert dirty.bits_sent == clean.bits_sent + bits_over_clean
        assert dirty.messages_sent == (23 if transport != "reliable" else 37)
        assert dirty.retransmits == retransmits
        assert dirty.finish_time_ms == 95.0

    def test_crashing_leader_rejected(self):
        with pytest.raises(ValueError):
            run_sac_protocol(make_models(3), k=2, leader=1, crash_at={1: 5.0})


class TestValidation:
    def test_bad_k(self):
        with pytest.raises(ValueError):
            run_sac_protocol(make_models(3), k=0)
        with pytest.raises(ValueError):
            run_sac_protocol(make_models(3), k=9)

    def test_bad_leader(self):
        with pytest.raises(ValueError):
            run_sac_protocol(make_models(3), k=2, leader=7)

    @pytest.mark.parametrize("crash_at, message", [
        ({99: 1.0}, r"crash_at peer ids out of range: \[99\]"),
        ({-1: 1.0}, "crash_at peer ids out of range"),
        ({2: -5.0}, "crash_at times must be >= 0"),
        ({2: float("nan")}, "crash_at times must be >= 0"),
        ({0: 5.0}, "leader"),
    ])
    def test_crash_at_is_checked_once_for_both_entry_points(
        self, crash_at, message
    ):
        # Peer 0 leads the SAC round and subgroup 0 of the wire round.
        with pytest.raises(ValueError, match=message):
            run_sac_protocol(make_models(6), k=2, crash_at=crash_at)
        with pytest.raises(ValueError, match=message):
            run_two_layer_wire_round(
                Topology.by_group_size(6, 3), make_models(6), k=2,
                crash_at=crash_at,
            )

    def test_ragged_models_rejected_before_the_simulation(self):
        models = make_models(4) + [np.ones(3)]
        with pytest.raises(ValueError, match="all models must share a shape"):
            run_sac_protocol(models, k=3)

    def test_deterministic(self):
        a = run_sac_protocol(make_models(4), k=2, seed=5)
        b = run_sac_protocol(make_models(4), k=2, seed=5)
        np.testing.assert_array_equal(a.average, b.average)
        assert a.bits_sent == b.bits_sent


class TestMemory:
    def test_round_never_materialises_the_share_tensor(self):
        """One 3-of-5 round at d = 2^18 stays within 10 model-sized
        arrays beyond its inputs (two primaries in flight, the leader's
        running subtotal and total, block scratch: ~4).  Building the
        n x (n-k+1) dense shares per peer, or every replica's subtotal,
        costs ~40 and fails this."""
        d = 2**18
        models = list(np.random.default_rng(0).random((5, d)))
        run_sac_protocol([m[:8] for m in models], k=3)  # warm caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = run_sac_protocol(models, k=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.outcome.ok
        np.testing.assert_allclose(result.average, np.mean(models, axis=0))
        assert peak - before <= 10 * d * 8
