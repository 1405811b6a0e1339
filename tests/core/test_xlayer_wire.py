"""X-layer rounds over the simulated wire, pinned to the Eq. 10 closed
forms, to the in-memory :func:`multi_layer_aggregate` reference and to
the per-item replay model (``tests/simnet/per_item.py``)."""

import contextlib
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from repro.__main__ import main
from repro.chaos.scale import run_scale_trial, scale_schedule, scale_topology
from repro.core import (
    MultiLayerTopology,
    multi_layer_aggregate,
    multi_layer_cost_bits,
    multi_layer_message_count,
    multi_layer_round_latency_ms,
    run_xlayer_wire_round,
)
from repro.simnet import FixedLatency, Simulator
from repro.simnet import waves as W
from repro.simnet.outcome import TIMED_OUT
from tests.simnet.latency import GaussianLatency, UniformLatency
from tests.simnet.per_item import per_item

#: NaN (never arrived) and ``inf`` (never landed) are sentinels here: an
#: arithmetic warning on them is a bug, not noise.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _models(topo, d=5, seed=1):
    return np.random.default_rng(seed).normal(size=(topo.n_peers, d))


class TestClosedForms:
    @pytest.mark.parametrize("n,depth", [(2, 1), (2, 5), (3, 3), (4, 4), (5, 2)])
    def test_bits_and_messages_match_eq10_exactly(self, n, depth):
        topo = MultiLayerTopology(n, depth)
        models = _models(topo)
        result = run_xlayer_wire_round(topo, models)
        assert result.bits_sent == multi_layer_cost_bits(n, depth, 5)
        assert result.messages_sent == multi_layer_message_count(n, depth)

    def test_fixed_latency_matches_closed_form(self):
        # Exact, not approximate: the closed form adds the hops in the
        # order the wire does, so a delay like 0.1 ms matches too.
        for delay, depth in itertools.product((15.0, 0.1, 7.3), (1, 2, 4)):
            topo = MultiLayerTopology(3, depth)
            result = run_xlayer_wire_round(
                topo, _models(topo), latency=FixedLatency(delay)
            )
            assert result.finish_time_ms == multi_layer_round_latency_ms(
                depth, delay
            )
            assert result.agg_done_ms < result.finish_time_ms

    def test_layer_stats_sum_to_totals(self):
        topo = MultiLayerTopology(4, 3)
        result = run_xlayer_wire_round(topo, _models(topo))
        agg_msgs = sum(st.messages for st in result.layer_stats)
        assert agg_msgs + (topo.n_peers - 1) == result.messages_sent
        agg_bits = sum(st.bits for st in result.layer_stats)
        bcast_bits = result.bits_by_kind["xl.bcast"]
        assert agg_bits + bcast_bits == result.bits_sent
        # Bottom layers finish before upper layers start aggregating.
        by_layer = {st.layer: st for st in result.layer_stats}
        for layer in range(1, topo.depth):
            assert by_layer[layer].start_ms >= by_layer[layer + 1].done_ms


def _layer_times(depth, delay):
    """``(layer, start_ms, done_ms)`` per layer, top first, under a fixed
    per-hop delay: layers run bottom-up, two hops each (shares,
    subtotals)."""
    times, t = [], 0.0
    for layer in range(depth, 0, -1):
        times.append((layer, t, t + 2 * delay))
        t += 2 * delay
    return times[::-1]


#: ``n, depth, crash a leaf under loss``.
EQUALITY_CASES = {
    "depth1": (3, 1, False),  # one layer: nothing carried up
    "n2": (2, 4, False),
    "n3": (3, 3, False),
    "n4": (4, 2, False),
    "n5": (5, 2, False),
    "lossy_crash": (3, 3, True),  # inf readiness carried up
}


class TestValueEquality:
    @pytest.mark.parametrize("case", list(EQUALITY_CASES))
    def test_average_equals_multi_layer_aggregate(self, case):
        """Same seed => bit-identical average: the wire round consumes
        the share RNG exactly as the in-memory reference does, whatever
        each layer hands up to the next.  Under ``FixedLatency`` every
        layer's times are the closed form; a leaf crashed for good
        stalls its group, and every layer above waits on it forever."""
        n, depth, lossy = EQUALITY_CASES[case]
        topo = MultiLayerTopology(n, depth)
        models = _models(topo, d=6, seed=9)
        kw = {}
        if lossy:
            from repro.chaos import Crash, FaultSchedule

            kw = dict(loss_rate=0.2, transport="reliable",
                      schedule=FaultSchedule([Crash(0.0, topo.n_peers - 1)]))
        ref = multi_layer_aggregate(topo, list(models), np.random.default_rng(5))
        result = run_xlayer_wire_round(
            topo, models, seed=5, latency=FixedLatency(15.0), **kw,
        )
        np.testing.assert_array_equal(ref.average, result.average)
        times = [(st.layer, st.start_ms, st.done_ms)
                 for st in result.layer_stats]
        if lossy:
            assert result.outcome.status == TIMED_OUT
            assert [done for _, _, done in times] == [np.inf] * depth
            assert times[0][1] == np.inf  # the top layer never starts
        else:
            assert times == _layer_times(depth, 15.0)
            assert result.finish_time_ms == multi_layer_round_latency_ms(depth, 15.0)

    def test_average_is_global_mean(self):
        topo = MultiLayerTopology(3, 3)
        models = _models(topo)
        result = run_xlayer_wire_round(topo, models)
        np.testing.assert_allclose(
            result.average, models.mean(axis=0), rtol=1e-9
        )

    def test_reference_flattens_and_restores_model_shape(self):
        # The wire round takes d-vectors; the reference takes any shape.
        topo = MultiLayerTopology(3, 3)
        models = _models(topo, d=6, seed=3)
        ref = multi_layer_aggregate(
            topo, [m.reshape(2, 3) for m in models], np.random.default_rng(8)
        )
        result = run_xlayer_wire_round(topo, models, seed=8)
        assert ref.average.shape == (2, 3)
        np.testing.assert_array_equal(ref.average.ravel(), result.average)
        assert ref.bits_sent == result.bits_sent
        assert ref.n_aggregations == topo.n_groups


class TestEngines:
    @pytest.mark.parametrize("latency", [
        FixedLatency(8.0), UniformLatency(2.0, 30.0), GaussianLatency(20.0, 5.0),
    ])
    def test_wave_and_scalar_bit_identical(self, latency):
        """Wave vs the per-item model, one heap entry per message."""
        topo = MultiLayerTopology(3, 3)
        models = _models(topo)
        a = run_xlayer_wire_round(topo, models, seed=4, latency=latency)
        with per_item():
            b = run_xlayer_wire_round(topo, models, seed=4, latency=latency)
        assert a.finish_time_ms == b.finish_time_ms
        assert a.agg_done_ms == b.agg_done_ms
        assert a.bits_sent == b.bits_sent
        assert a.messages_sent == b.messages_sent
        np.testing.assert_array_equal(a.average, b.average)
        assert a.layer_stats == b.layer_stats

    def test_wave_engine_uses_fewer_heap_events(self):
        topo = MultiLayerTopology(4, 4)
        models = _models(topo)
        a = run_xlayer_wire_round(topo, models)
        with per_item():
            b = run_xlayer_wire_round(topo, models)
        assert b.heap_stats["events_processed"] == b.messages_sent
        assert a.heap_stats["events_processed"] < b.messages_sent / 10


class TestWirePlan:
    """A topology builds its layers' wave endpoints once; every round on
    it ships the same read-only arrays and measures what a round on a
    fresh topology does."""

    def test_plan_is_cached_read_only_and_matches_the_members(self):
        topo = MultiLayerTopology(3, 3)
        pair_i, pair_j = np.where(~np.eye(3, dtype=bool))
        for layer in (1, 2, 3):
            plan = topo.wire_plan(layer)
            assert topo.wire_plan(layer) is plan
            members = topo.member_matrix(layer)
            np.testing.assert_array_equal(plan.share, [
                members.take(pair_i, axis=1).reshape(-1),
                members.take(pair_j, axis=1).reshape(-1),
            ])
            np.testing.assert_array_equal(plan.followers,
                                          members[:, 1:].reshape(-1))
            np.testing.assert_array_equal(plan.leaders,
                                          np.repeat(members[:, 0], 2))
            for ids in plan:
                assert ids.dtype == np.int64
                with pytest.raises(ValueError):
                    ids[0] = -1

    @staticmethod
    def _fingerprint(r):
        return (
            r.finish_time_ms, r.agg_done_ms, r.bits_sent, r.messages_sent,
            r.layer_stats, r.bits_by_kind, r.heap_stats, r.outcome,
            r.retransmits, r.acks, r.duplicates, r.exhausted,
            r.exhausted_undelivered, r.dropped,
        )

    @pytest.mark.parametrize("lossy", [False, True],
                             ids=["fault_free", "lossy"])
    @pytest.mark.parametrize("replay", ["wave", "per_item"])
    def test_reused_plan_changes_nothing(self, lossy, replay):
        def kw(topo, seed):
            if not lossy:
                return dict(seed=seed, latency=FixedLatency(15.0))
            return dict(seed=seed, latency=FixedLatency(10.0),
                        loss_rate=0.2, transport="reliable",
                        schedule=scale_schedule(topo))

        reused = MultiLayerTopology(3, 4)
        models = _models(reused, seed=8)
        with per_item() if replay == "per_item" else contextlib.nullcontext():
            again = [run_xlayer_wire_round(reused, models, **kw(reused, s))
                     for s in (5, 6)]
            fresh = []
            for s in (5, 6):
                topo = MultiLayerTopology(3, 4)
                fresh.append(run_xlayer_wire_round(topo, models, **kw(topo, s)))
        assert again[0].outcome.ok and (again[0].retransmits > 0) == lossy
        for a, b in zip(again, fresh):
            np.testing.assert_array_equal(a.average, b.average)
            assert self._fingerprint(a) == self._fingerprint(b)


class TestPeakMemory:
    def test_round_peak_per_peer(self):
        """Perf pin: after a warm-up round, an ``xlayer_wide`` round
        (118,096 peers, d = 8, ``FixedLatency(15)``) peaks at no more
        than 240 bytes a peer (measured: 195).  The waves' time and seq
        arrays are most of it; layers hand their group sums up by
        position, so no ``(d, N)`` copy of the models and no length-N
        sums, counts or readiness exist, and waves issued in time order
        keep no sort order or sorted copy.  The waves' src/dst ids are
        the topology's cached wire plans, built by the warm-up round, and
        no wave fills a per-message delay or clamped departure array:
        rebuilding the ids every round, with those fills, peaked at 262."""
        topo = MultiLayerTopology(4, 10)
        models = _models(topo, d=8)
        kw = dict(latency=FixedLatency(15.0))
        run_xlayer_wire_round(topo, models, **kw)  # warm-up
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = run_xlayer_wire_round(topo, models, **kw)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert result.outcome.ok and result.n_peers == 118_096
        assert peak <= 240 * result.n_peers, peak / result.n_peers


class TestChaosRound:
    """Lossy + reliable + fault schedule: the full item-wave path in
    ``run_xlayer_wire_round``, identical under the per-item model."""

    def _schedule(self, topo):
        from repro.chaos import Crash, DelaySpike, FaultSchedule, LossWindow, Recover

        leaf = topo.n_peers - 1
        return FaultSchedule([
            LossWindow(5.0, 60.0, 0.35),
            DelaySpike(10.0, 80.0, 5.0),
            Crash(1.0, leaf),
            Recover(90.0, leaf),
        ])

    def _fingerprint(self, r):
        return (
            r.finish_time_ms, r.agg_done_ms, r.bits_sent, r.messages_sent,
            r.outcome, r.retransmits, r.acks, r.duplicates, r.exhausted,
            r.exhausted_undelivered, r.dropped,
        )

    def test_wave_and_per_item_bit_identical(self):
        topo = MultiLayerTopology(3, 3)
        models = _models(topo, seed=6)
        schedule = self._schedule(topo)
        kw = dict(
            seed=2, latency=FixedLatency(10.0), loss_rate=0.2,
            transport="reliable", schedule=schedule,
        )
        base = run_xlayer_wire_round(topo, models, **kw)
        assert base.outcome.ok
        assert base.retransmits > 0 and base.acks > 0
        # Loss and faults move the wire, never the aggregate.
        ref = multi_layer_aggregate(topo, models, np.random.default_rng(2))
        np.testing.assert_array_equal(base.average, ref.average)
        with per_item():
            other = run_xlayer_wire_round(topo, models, **kw)
        np.testing.assert_array_equal(base.average, other.average)
        assert self._fingerprint(other) == self._fingerprint(base)

    def test_off_lattice_round_drains_in_a_handful_of_firings(self):
        """The cliff, as a count.  Under ``UniformLatency`` no two items
        share an instant, and when every wave was its own heap entry
        they cut each other item by item: 96,584 firings for this
        13,120-peer round (344k items).  Accounting batches replay from
        one merged ledger, which only a foreign event can cut."""
        kw = dict(seed=3, latency=UniformLatency(10.0, 20.0), loss_rate=0.2,
                  transport="reliable")
        topo = MultiLayerTopology(4, 8)
        big = run_xlayer_wire_round(topo, _models(topo, d=2), **kw)
        assert big.n_peers == 13_120 and big.retransmits > 10_000
        assert big.heap_stats["events_processed"] <= 30
        assert big.heap_stats["peak_pending"] <= 2
        topo = MultiLayerTopology(4, 6)  # 1,456 peers: per-item affordable
        wave = run_xlayer_wire_round(topo, _models(topo), **kw)
        with per_item():
            item = run_xlayer_wire_round(topo, _models(topo), **kw)
        assert self._fingerprint(wave) == self._fingerprint(item)
        assert wave.bits_by_kind == item.bits_by_kind
        assert wave.layer_stats == item.layer_stats
        np.testing.assert_array_equal(wave.average, item.average)
        assert (wave.heap_stats["scheduled_total"]
                == item.heap_stats["scheduled_total"])
        assert wave.heap_stats["events_processed"] <= 30

    def test_accounting_batches_replay_from_one_ledger_entry(self):
        """The ``xlayer_lossy`` smoke shape as a count: 1,456 peers,
        20 % loss and the scale fault script, 18 ``send_batch`` calls
        and nothing else on the heap.  The merged ledger drains them in
        one firing (at most one per batch, else a wave is back in the
        heap) for the same exact item count, over a pinned number of
        rows and in less memory than an item-length index would take;
        the per-item model pays one firing per item."""
        kw = dict(depth=6, loss_rate=0.2, chaos=True, dim=8,
                  max_attempts=32, seed=11)
        drains = []
        fire = W._ItemLedger._fire

        def traced(ledger):
            tracemalloc.start()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                fire(ledger)
            finally:
                drains.append((len(ledger._row_t),
                               tracemalloc.get_traced_memory()[1] - base))
                tracemalloc.stop()

        with mock.patch.object(W._ItemLedger, "_fire", traced):
            wave = run_scale_trial(1000, **kw)
        assert wave.n_peers == 1456 and wave.outcome == "completed"
        assert wave.heap["events_processed"] == 1  # bound: 18, one per batch
        assert wave.heap["scheduled_total"] == 40_856
        # The ledger replays (time, batch) rows, never items: 1,214 rows
        # from 3,375 per-instant entries, merged and drained in a peak of
        # 124-125 kB, 3.1 bytes per item — an int64 sort index alone
        # would cost 8 bytes per item.
        [(rows, peak)] = drains
        assert rows == 1_214
        assert peak < 3.1 * 40_856, peak
        with per_item():
            item = run_scale_trial(1000, **kw)
        assert (item.heap["events_processed"]
                == item.heap["scheduled_total"] == 40_856)
        assert item.average_sum == wave.average_sum
        assert item.finish_ms == wave.finish_ms

    def test_issued_batches_leave_no_item_behind(self):
        """Perf pin on the same shape: the bytes still allocated when its
        18 batches are issued and ``sim.run`` starts, 11.6 per item.
        They are the round's inputs (models, the topology's wire plans),
        each message's delivery time, attempt count and delivered flag,
        and the ledger's per-instant entries: the ledger reduces each
        batch's item blocks as it is issued, so no item outlives
        ``send_batch``.  Creation-order item columns (float64 time, int8
        type, int32 message, bool flag) would add 14 bytes per item."""
        kw = dict(depth=6, loss_rate=0.2, chaos=True, dim=8,
                  max_attempts=32, seed=11)
        run_scale_trial(1000, **kw)  # first-call imports and caches
        held = []
        run = Simulator.run

        def traced(sim, *args, **kwargs):
            held.append(tracemalloc.get_traced_memory()[0])
            return run(sim, *args, **kwargs)

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with mock.patch.object(Simulator, "run", traced):
                report = run_scale_trial(1000, **kw)
        finally:
            tracemalloc.stop()
        assert report.heap["scheduled_total"] == 40_856
        [issued] = held
        assert issued - base <= 11.6 * 40_856, issued - base

    def test_lossy_round_requires_reliable_transport(self):
        topo = MultiLayerTopology(2, 2)
        with pytest.raises(ValueError):
            run_xlayer_wire_round(topo, _models(topo), loss_rate=0.1)


class TestValidation:
    def test_wrong_model_count(self):
        topo = MultiLayerTopology(3, 2)
        with pytest.raises(ValueError):
            run_xlayer_wire_round(topo, np.zeros((5, 2)))

    def test_ragged_rows_raise_the_shared_shape_error(self):
        topo = MultiLayerTopology(2, 2)
        rows = [np.zeros(3)] * 3 + [np.zeros(4)]
        for run in (
            lambda: run_xlayer_wire_round(topo, rows),
            lambda: multi_layer_aggregate(topo, rows, np.random.default_rng(0)),
        ):
            with pytest.raises(ValueError, match="must share a shape"):
                run()

    def test_parallel_shim_accepts_only_off(self):
        """``parallel`` survives on the benchmark entry points as a
        keyword that accepts only ``"off"``, which is the default path."""
        topo = MultiLayerTopology(4, 3)
        models = _models(topo, seed=3)
        base = run_xlayer_wire_round(topo, models, seed=1)
        off = run_xlayer_wire_round(topo, models, seed=1, parallel="off")
        np.testing.assert_array_equal(base.average, off.average)
        assert base.bits_sent == off.bits_sent
        assert base.finish_time_ms == off.finish_time_ms
        for mode in ("threads", "process"):
            with pytest.raises(ValueError, match="fan-out was removed"):
                run_xlayer_wire_round(topo, models, seed=1, parallel=mode)
            with pytest.raises(ValueError, match="fan-out was removed"):
                run_scale_trial(40, depth=3, parallel=mode)
        with pytest.raises(SystemExit) as exc:
            main(["xlayer", "--parallel", "threads"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("depth", [0, -1])
    def test_scale_topology_rejects_a_treeless_depth(self, depth):
        with pytest.raises(ValueError, match="depth must be >= 1"):
            scale_topology(50, depth)

    def test_bad_engine(self):
        """``engine`` survives on the two benchmark entry points as a
        keyword that accepts only ``"wave"``; the CLI flag is gone."""
        topo = MultiLayerTopology(2, 1)
        models = _models(topo)
        removed = "scalar delivery engine was removed.*tests/simnet/per_item"
        for engine in ("scalar", "warp"):
            with pytest.raises(ValueError, match=removed):
                run_xlayer_wire_round(topo, models, engine=engine)
            with pytest.raises(ValueError, match=removed):
                run_scale_trial(40, depth=3, engine=engine)
        with pytest.raises(SystemExit) as exc:
            main(["xlayer", "--engine", "scalar"])
        assert exc.value.code == 2


@pytest.mark.slow
class TestScale:
    def test_100k_peer_round(self):
        """The acceptance point: an X-layer round at >= 10^5 simulated
        peers with wire bits bit-identical to Eq. 10."""
        n, depth = 4, 10
        topo = MultiLayerTopology(n, depth)
        assert topo.n_peers >= 100_000
        models = _models(topo, d=4)
        result = run_xlayer_wire_round(
            topo, models, latency=GaussianLatency(20.0, 5.0)
        )
        assert result.bits_sent == multi_layer_cost_bits(n, depth, 4)
        assert result.messages_sent == multi_layer_message_count(n, depth)
        np.testing.assert_allclose(
            result.average, models.mean(axis=0), rtol=1e-6
        )
        # ...and the aggregate bit-identical to the no-simulator reference.
        ref = multi_layer_aggregate(topo, models, np.random.default_rng(0))
        np.testing.assert_array_equal(ref.average, result.average)
        assert ref.bits_sent == result.bits_sent

    def test_full_size_lossy_round_is_pinned(self):
        """The ``xlayer_lossy`` benchmark op at seed 11: 118,096 peers,
        20 % loss, the scale fault script and 32 attempts.  Every field
        of the report but the wall time is pinned, heap included, so the
        item waves and their ledger may change speed, never results."""
        r = run_scale_trial(118_096, depth=10, loss_rate=0.2, seed=11,
                            chaos=True, dim=8, max_attempts=32)
        assert (r.n_peers, r.finish_ms, r.outcome) == (
            118_096, 20175.0, "completed")
        assert r.average_sum == -0.0075778426880862264
        assert (r.bits_sent, r.messages_sent) == (338_783_680.0, 1_625_555)
        assert (r.retransmits, r.acks, r.duplicates) == (
            488_017, 916_985, 208_415)
        assert (r.exhausted, r.dropped) == (0, 488_002)
        assert (r.heap["scheduled_total"], r.heap["events_processed"],
                r.heap["peak_pending"]) == (3_310_174, 1, 1)
