"""The vectorized delivery-wave engine vs the per-item replay model.

The contract under test (``repro.simnet.waves``): for the same
``send_batch`` call a wave and the per-item replay
(``tests/simnet/per_item.py``) produce identical delivery times, trace
totals and global event ordering — the wave just does it with one heap
entry per run instead of one per message.
"""

import tracemalloc

import numpy as np
import pytest

from repro.chaos.scale import scale_schedule
from repro.core import MultiLayerTopology
from repro.simnet import (
    FixedLatency,
    Network,
    Simulator,
    WaveRecord,
)
from repro.simnet.trace import MessageRecord

from .latency import GaussianLatency, UniformLatency
from .per_item import REPLAYS, per_item

#: NaN (never arrived) and ``inf`` (never landed) are sentinels here: an
#: arithmetic warning on them is a bug, not noise.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _net(seed=0, latency=None, loss_rate=0.0, **kw):
    sim = Simulator()
    net = Network(sim, latency=latency or FixedLatency(10.0),
                  rng=np.random.default_rng(seed), loss_rate=loss_rate, **kw)
    return sim, net


def _bottom_share_pairs(topo):
    """The bottom layer's share wave: every ordered pair of each group of
    4 (``xlayer_wide``: 26,244 groups, 314,928 messages)."""
    members = topo.member_matrix(topo.depth)
    pair_i, pair_j = np.where(~np.eye(4, dtype=bool))
    return members[:, pair_i].reshape(-1), members[:, pair_j].reshape(-1)


def _pair_batch(rng, n_nodes, m):
    src = rng.integers(0, n_nodes, size=m)
    dst = (src + 1 + rng.integers(0, n_nodes - 1, size=m)) % n_nodes
    return src, dst


class TestEngineEquality:
    @pytest.mark.parametrize("latency", [
        FixedLatency(12.0),
        UniformLatency(5.0, 25.0),
        GaussianLatency(20.0, 6.0),
    ])
    @pytest.mark.parametrize("loss", [0.0])
    def test_identical_delivery_times_and_totals(self, latency, loss):
        rng = np.random.default_rng(42)
        src, dst = _pair_batch(rng, 50, 4000)
        results = {}
        for side, replay in REPLAYS:
            with replay():
                sim, net = _net(seed=7, latency=latency, loss_rate=loss)
                wave = net.send_batch(src, dst, size_bits=64.0, kind="x")
                sim.run()
            results[side] = (
                wave.delivery_times, wave.count, wave.dropped,
                net.trace.total_bits, net.trace.total_messages,
                net.trace.total_dropped, sim.now,
            )
        w, s = results["wave"], results["per_item"]
        np.testing.assert_array_equal(w[0], s[0])
        assert w[1:] == s[1:]

    def test_wave_uses_fewer_heap_events(self):
        rng = np.random.default_rng(1)
        src, dst = _pair_batch(rng, 20, 2000)
        counts = {}
        for side, replay in REPLAYS:
            with replay():
                sim, net = _net(seed=3, latency=GaussianLatency(15.0, 4.0))
                net.send_batch(src, dst, size_bits=8.0)
                sim.run()
            counts[side] = sim.heap_stats()["events_processed"]
        assert counts["per_item"] == 2000
        assert counts["wave"] < counts["per_item"] / 10

    def test_interleaved_waves_share_global_order(self):
        """Two overlapping waves + a timer: the merged delivery order is
        the same (time, seq) order under the wave and the model."""
        order = {}
        for side, replay in REPLAYS:
            with replay():
                sim, net = _net(seed=5, latency=UniformLatency(1.0, 30.0))
                log = []
                rng = np.random.default_rng(9)
                s1, d1 = _pair_batch(rng, 10, 300)
                s2, d2 = _pair_batch(rng, 10, 300)
                net.send_batch(s1, d1, kind="a")
                net.send_batch(s2, d2, kind="b")
                sim.schedule(15.0, lambda: log.append(("timer", sim.now)))
                net.trace.keep_records = True
                sim.run()
            order[side] = sim.now
        assert order["wave"] == order["per_item"]


class TestWaveAccounting:
    def test_bulk_wave_publishes_wave_records(self):
        sim, net = _net(latency=FixedLatency(5.0))
        net.trace.keep_records = True
        wave = net.send_batch([0, 1, 2], [3, 4, 5], size_bits=32.0, kind="k")
        sim.run()
        assert wave.done
        recs = [r for r in net.trace.records if isinstance(r, WaveRecord)]
        assert recs and sum(r.count for r in recs) == 3
        assert net.trace.total_bits == 96.0
        assert net.trace.total_messages == 3

    def test_scalar_engine_publishes_message_records(self):
        """The per-item model replays through ``_deliver_one``: one
        ``MessageRecord`` per message."""
        with per_item():
            sim, net = _net(latency=FixedLatency(5.0))
            net.trace.keep_records = True
            net.send_batch([0, 1], [2, 3], size_bits=16.0)
            sim.run()
        recs = [r for r in net.trace.records if isinstance(r, MessageRecord)]
        assert len(recs) == 2

    def test_in_flight_gauge_returns_to_zero(self):
        sim, net = _net(seed=2, latency=GaussianLatency(10.0, 3.0))
        rng = np.random.default_rng(0)
        src, dst = _pair_batch(rng, 8, 500)
        net.send_batch(src, dst)
        assert net.in_flight == 500
        sim.run()
        assert net.in_flight == 0
        assert net.peak_in_flight >= 500


class TestFaultFreeIssue:
    """A fire-and-forget wave drops nothing: ``send_batch`` builds no
    mask and gathers nothing."""

    @pytest.mark.parametrize("in_order", [True, False])
    def test_time_ordered_wave_skips_the_sort(self, in_order):
        """A stable sort of non-decreasing times is the identity, so a
        wave issued in time order keeps its arrays; one departure out of
        order takes the sort.  Both replay as the per-item model does:
        same delivery times, heap ``(time, seq)`` keys and trace totals,
        around a foreign entry mid-wave."""
        rng = np.random.default_rng(5)
        src, dst = _pair_batch(rng, 40, 3000)
        at = np.repeat(np.arange(30.0), 100)  # ties within each instant
        if not in_order:
            at[1500] = 29.5
        seen = {}
        for side, replay in REPLAYS:
            with replay():
                sim, net = _net(seed=3, latency=FixedLatency(12.0))
                sim.schedule(20.0, lambda: None)
                wave = net.send_batch(src, dst, size_bits=64.0, kind="k",
                                      at_times=at)
                keys = (wave._times.tolist(), wave._seqs.tolist())
                sim.run()
            seen[side] = (
                wave.delivery_times.tolist(), keys, sim.now,
                net.trace.total_bits, net.trace.total_messages,
            )
        assert seen["wave"] == seen["per_item"]
        order = np.argsort(wave.delivery_times, kind="stable")
        seq0 = min(keys[1])
        assert keys == (wave.delivery_times[order].tolist(),
                        (seq0 + order).tolist())
        assert np.array_equal(order, np.arange(len(at))) == in_order

    def test_issue_peak_memory_per_message(self):
        """Perf pin: issuing xlayer_wide's bottom share wave (26,244
        groups of 4, 314,928 messages) peaks at no more than 24 bytes a
        message (measured: 16) — arrival times and heap seqs: no mask
        or flags, and its times already ascend, so no sort order or
        sorted copy.  Departures no earlier than ``now``
        are used as given, and ``FixedLatency`` adds a broadcast delay:
        a clamped departure copy and a filled delay array took 33."""
        src, dst = _bottom_share_pairs(MultiLayerTopology(4, 10))
        at = np.zeros(len(src))
        sim, net = _net(latency=FixedLatency(15.0))
        tracemalloc.start()
        try:
            wave = net.send_batch(src, dst, size_bits=512.0, kind="xl.share",
                                  at_times=at)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert wave.count == len(src) == 314_928
        assert peak <= 24 * len(src), peak / len(src)

    def test_item_issue_peak_memory_per_message(self):
        """Perf pin: issuing the same share wave as an item wave (20 %
        loss, reliable transport, 32 attempts, the scale fault script)
        peaks at no more than 120 bytes a message (measured: 111.3;
        102.5 without the script).  A fixed latency and a one-span loss
        rate or delay are floats, so no epoch fills or gathers a
        per-message array for them: filled rates and delays and the
        cohorts' endpoint gathers took 144.9 (122.9)."""
        topo = MultiLayerTopology(4, 10)
        src, dst = _bottom_share_pairs(topo)
        sim, net = _net(latency=FixedLatency(15.0), loss_rate=0.2,
                        transport="reliable",
                        transport_opts={"max_attempts": 32})
        net.fault_timeline = scale_schedule(topo).timeline(0.2)
        at = np.zeros(len(src))
        tracemalloc.start()
        try:
            wave = net.send_batch(src, dst, size_bits=512.0, kind="xl.share",
                                  at_times=at)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert wave.count == len(src) == 314_928
        assert peak <= 120 * len(src), peak / len(src)


class TestValidation:
    def test_engine_names(self):
        """Waves are the only delivery engine: no ``engine`` keyword."""
        import repro.simnet as simnet

        sim, net = _net()
        with pytest.raises(TypeError):
            net.send_batch([0], [1], engine="scalar")
        assert not hasattr(simnet, "ENGINES")
        assert not hasattr(simnet, "check_engine")

    def test_reliable_transport_runs_in_item_mode(self):
        # Historically rejected; now routed through the item-wave path.
        sim = Simulator()
        net = Network(sim, rng=np.random.default_rng(0), transport="reliable")
        wave = net.send_batch([0], [1], size_bits=8.0)
        sim.run()
        assert wave.count == 1 and wave.dropped == 0
        assert net.reliable.acks_sent == 1

    @pytest.mark.parametrize("case", [
        "crashed", "bandwidth", "lossy", "uplink_reliable", "uplink_timeline",
    ])
    def test_faults_outside_a_timeline_rejected(self, case):
        """A wave reads its faults from an installed ``FaultTimeline``
        only.  Live crash state, a bandwidth (serialized uplinks
        included, under the reliable transport or a timeline) and
        fire-and-forget loss raise, and nothing is issued."""
        from repro.chaos import FaultSchedule, LossWindow

        kw = {
            "bandwidth": dict(bandwidth_bps=1e6),
            "lossy": dict(loss_rate=0.2),
            "uplink_reliable": dict(bandwidth_bps=1e6, serialize_uplink=True,
                                    transport="reliable"),
            "uplink_timeline": dict(bandwidth_bps=1e6, serialize_uplink=True),
        }.get(case, {})
        sim, net = _net(latency=FixedLatency(10.0), **kw)
        if case == "crashed":
            net.crash(1)
        elif case == "uplink_timeline":
            net.fault_timeline = FaultSchedule(
                [LossWindow(0.0, 10.0, 0.5)]).timeline()
        before = sim.heap_stats()
        with pytest.raises(ValueError, match="FaultTimeline"):
            net.send_batch([0], [1], size_bits=8.0)
        assert sim.heap_stats() == before and net.in_flight == 0

    def test_an_armed_schedule_is_the_timeline_a_wave_reads(self):
        """Arming installs the timeline: a wave sent inside an armed
        partition and spike reads both, as an actor send would."""
        from repro.chaos import DelaySpike, FaultSchedule, PartitionWindow

        sim, net = _net(latency=FixedLatency(10.0))
        FaultSchedule([
            DelaySpike(0.0, 100.0, 25.0),
            PartitionWindow(0.0, 100.0, ((0, 1), (2,))),
        ]).arm(sim, net)
        wave = net.send_batch([0, 0], [1, 2], size_bits=8.0)
        sim.run()
        np.testing.assert_array_equal(wave.delivery_times, [35.0, np.nan])

    def test_shape_mismatch_rejected(self):
        sim, net = _net()
        with pytest.raises(ValueError):
            net.send_batch([0, 1], [1])
        with pytest.raises(ValueError):
            net.send_batch([0, 1], [1, 0], at_times=[1.0])


class TestScheduling:
    def test_at_times_clamped_to_now(self):
        sim, net = _net(latency=FixedLatency(10.0))
        sim.schedule(50.0, lambda: None)
        sim.run()
        assert sim.now == 50.0
        wave = net.send_batch([0], [1], at_times=[10.0])  # in the past
        assert wave.delivery_times[0] == 60.0

    def test_future_departures(self):
        sim, net = _net(latency=FixedLatency(10.0))
        wave = net.send_batch([0, 0], [1, 2], at_times=[0.0, 100.0])
        np.testing.assert_array_equal(wave.delivery_times, [10.0, 110.0])
        sim.run()
        assert sim.now == 110.0

    def test_empty_batch(self):
        sim, net = _net()
        wave = net.send_batch(np.array([], dtype=int), np.array([], dtype=int))
        assert wave.count == 0 and wave.dropped == 0 and wave.done
        sim.run()
        assert sim.now == 0.0
