"""Tests for the message-passing SAC protocol on the simulated network."""

import tracemalloc

import numpy as np
import pytest

from repro.secure import protocol
from repro.secure.batched import DenseShare, DenseSubtotal, mean_of_subtotals
from repro.secure.fault_tolerant import expected_ft_sac_bits
from repro.secure.protocol import run_sac_protocol, sac_reference_average


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

    def test_lost_bundle_of_a_dead_peer_starts_the_fetches(self):
        """Peer 1's bundle to the leader is lost and peer 1 dies for good
        at 16 ms, before its retransmission: the leader's bundles never
        complete.  Its stall timer sees a missing origin gone for good and
        fetches every subtotal it lacks from the live holders, so the
        round completes with the reference aggregate instead of idling
        to the round timeout."""
        models = [np.random.default_rng([0, i]).normal(size=16)
                  for i in range(6)]
        result = run_sac_protocol(
            models, k=4, seed=0, crash_at={1: 16.0}, loss_rate=0.1,
            transport="reliable", transport_opts={"max_attempts": 6},
            round_timeout_ms=5_000.0,
        )
        assert result.outcome.ok, result.outcome
        assert result.finish_time_ms == 230.0
        assert result.recovered_shares == (0, 1, 2, 3)
        np.testing.assert_array_equal(
            result.average, sac_reference_average(models, 0))

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
    ], ids=["unknown-peer", "negative-peer", "negative-time", "nan-time", "leader"])
    def test_crash_at_is_checked(self, crash_at, message):
        # Peer 0 leads the SAC round.
        with pytest.raises(ValueError, match=message):
            run_sac_protocol(make_models(6), k=2, crash_at=crash_at)

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
    @staticmethod
    def _peak_model_arrays(crash_at, recovered):
        """tracemalloc peak of one 3-of-5 round at d = 2^18 beyond its
        inputs, in model-sized arrays; the round must also be right."""
        d = 2**18
        models = list(np.random.default_rng(0).random((5, d)))
        kw = dict(k=3, crash_at=crash_at, subtotal_timeout_ms=50.0)
        run_sac_protocol([m[:8] for m in models], **kw)  # warm caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = run_sac_protocol(models, **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.outcome.ok
        assert result.recovered_shares == recovered
        assert result.average.tobytes() == sac_reference_average(models).tobytes()
        return (peak - before) / (d * 8)

    def test_round_never_materialises_the_share_tensor(self):
        """A round stays within 2 model-sized arrays beyond its inputs:
        the average, the kernel's block scratch and the simulator's
        bookkeeping measure ~1.3.  Primaries travel as handles and the
        leader evaluates every subtotal inside its one pass, so none is
        allocated — one eager subtotal next to the average fails this
        (the eager path took 4.1, materialised shares ~40)."""
        assert self._peak_model_arrays(None, ()) <= 2

    def test_replica_fetch_allocates_no_subtotal_either(self):
        """Alg. 4: peer 3's primary dies with it in flight and the leader
        fetches index 3 from a replica holder — whose reply is a handle."""
        assert self._peak_model_arrays({3: 20.0}, (3,)) <= 2


class TestLazySubtotals:
    @pytest.mark.parametrize("opts,frame_bits", [
        # two primaries
        (dict(), 0.0),
        # peer 3's primary dies with it in flight: one primary and the
        # replica holder's reply
        (dict(crash_at={3: 20.0}), 0.0),
        # neither primary gets through first time: each is sent again,
        # from the same handle (the reliable channel adds its header)
        (dict(transport="reliable", loss_rate=0.3, seed=7), 64.0),
    ])
    def test_dense_subtotal_is_sent_and_accounted_unmaterialised(
        self, monkeypatch, opts, frame_bits
    ):
        """A primary, a replica reply and a retransmitted subtotal are
        each charged ``|w| * 32`` bits off the handle's ``size``; nothing
        on the way to the leader's one pass builds the array."""
        def refuse(self):
            raise AssertionError(f"{type(self).__name__} was materialised")

        traces = []

        class KeptRecorder(protocol.TraceRecorder):
            def __init__(self):
                super().__init__()
                traces.append(self)

        monkeypatch.setattr(DenseSubtotal, "materialize", refuse)
        monkeypatch.setattr(DenseShare, "materialize", refuse)
        monkeypatch.setattr(protocol, "TraceRecorder", KeptRecorder)
        models = make_models(5, size=64)
        result = run_sac_protocol(
            models, k=3, subtotal_timeout_ms=50.0, **opts
        )
        assert result.outcome.ok
        assert result.average.tobytes() == sac_reference_average(
            models, seed=opts.get("seed", 0)).tobytes()
        (trace,) = traces
        assert trace.messages("sac.subtotal") == 2
        assert trace.bits("sac.subtotal") == 2 * (64 * 32.0 + frame_bits)
        assert result.recovered_shares == ((3,) if "crash_at" in opts else ())
        assert trace.dropped("sac.subtotal") == (2 if frame_bits else 0)

    @pytest.mark.parametrize("share_codec", ["dense", "seed", "seed-dense"])
    def test_round_mutates_no_model_and_no_received_subtotal(
        self, monkeypatch, share_codec
    ):
        """The leader's sum is a new array: the senders' subtotals (their
        arrays under the seed codecs) and every model hash the same
        before and after."""
        unchanged = []

        def spy(terms, n):
            before = [np.asarray(t).tobytes() for t in terms]
            out = mean_of_subtotals(terms, n)
            unchanged.append(
                before == [np.asarray(t).tobytes() for t in terms]
                and not any(
                    np.shares_memory(out, t) for t in terms
                    if isinstance(t, np.ndarray)
                )
            )
            return out

        monkeypatch.setattr(protocol, "mean_of_subtotals", spy)
        models = make_models(5, size=64)
        before = [m.tobytes() for m in models]
        result = run_sac_protocol(
            models, k=3, leader=2, crash_at={0: 20.0},
            subtotal_timeout_ms=50.0, share_codec=share_codec,
        )
        assert result.outcome.ok and unchanged == [True]
        assert [m.tobytes() for m in models] == before
        np.testing.assert_allclose(result.average, np.mean(models, axis=0))
