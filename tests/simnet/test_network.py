"""Unit tests for the simulated network: latency, crash, partition, tracing."""

import numpy as np
import pytest

from repro.simnet import (
    FixedLatency,
    Network,
    SimNode,
    Simulator,
    TraceRecorder,
)

from .latency import GaussianLatency, UniformLatency


class Recorder(SimNode):
    """Test node recording (time, src, msg) of everything it receives."""

    def __init__(self, node_id, sim, network):
        super().__init__(node_id, sim, network)
        self.received = []

    def on_message(self, src, msg):
        self.received.append((self.sim.now, src, msg))


@pytest.fixture()
def net():
    sim = Simulator()
    network = Network(sim, latency=FixedLatency(15.0), rng=np.random.default_rng(1))
    nodes = [Recorder(i, sim, network) for i in range(4)]
    return sim, network, nodes


class TestDelivery:
    def test_fixed_latency_delivery(self, net):
        sim, network, nodes = net
        nodes[0].send(1, "hello")
        sim.run()
        assert nodes[1].received == [(15.0, 0, "hello")]

    def test_broadcast_excludes_sender(self, net):
        sim, network, nodes = net
        network.broadcast(0, [0, 1, 2, 3], "x")
        sim.run()
        assert nodes[0].received == []
        for node in nodes[1:]:
            assert node.received == [(15.0, 0, "x")]

    def test_unknown_destination_raises(self, net):
        sim, network, nodes = net
        with pytest.raises(KeyError):
            network.send(0, 99, "x")

    def test_duplicate_node_id_rejected(self, net):
        sim, network, nodes = net
        with pytest.raises(ValueError):
            Recorder(0, sim, network)

    def test_message_ordering_preserved_with_fixed_latency(self, net):
        sim, network, nodes = net
        for i in range(5):
            nodes[0].send(1, i)
        sim.run()
        assert [m for _, _, m in nodes[1].received] == [0, 1, 2, 3, 4]


class TestFaults:
    def test_crashed_node_does_not_receive(self, net):
        sim, network, nodes = net
        network.crash(1)
        nodes[0].send(1, "x")
        sim.run()
        assert nodes[1].received == []

    def test_crashed_node_does_not_send(self, net):
        sim, network, nodes = net
        network.crash(0)
        nodes[0].send(1, "x")
        sim.run()
        assert nodes[1].received == []

    def test_crash_mid_flight_drops_message(self, net):
        sim, network, nodes = net
        nodes[0].send(1, "x")
        sim.schedule(5.0, lambda: network.crash(1))
        sim.run()
        assert nodes[1].received == []

    def test_recover_restores_delivery(self, net):
        sim, network, nodes = net
        network.crash(1)
        network.recover(1)
        nodes[0].send(1, "x")
        sim.run()
        assert len(nodes[1].received) == 1

    def test_crash_cancels_node_timers(self, net):
        sim, network, nodes = net
        fired = []
        nodes[1].set_timer(10.0, lambda: fired.append(1))
        network.crash(1)
        sim.run()
        assert fired == []

    def test_alive_ids(self, net):
        sim, network, nodes = net
        network.crash(2)
        assert network.alive_ids() == [0, 1, 3]
        assert network.is_crashed(2)

    def test_partition_blocks_cross_group(self, net):
        sim, network, nodes = net
        network.set_partition([[0, 1], [2, 3]])
        nodes[0].send(1, "same-side")
        nodes[0].send(2, "cross")
        sim.run()
        assert len(nodes[1].received) == 1
        assert nodes[2].received == []

    def test_partition_heal(self, net):
        sim, network, nodes = net
        network.set_partition([[0, 1], [2, 3]])
        network.set_partition(None)
        nodes[0].send(2, "x")
        sim.run()
        assert len(nodes[2].received) == 1

    def test_node_absent_from_partition_isolated(self, net):
        sim, network, nodes = net
        network.set_partition([[0, 1]])
        nodes[2].send(3, "x")
        sim.run()
        assert nodes[3].received == []

    def test_overlapping_partition_groups_rejected(self, net):
        sim, network, nodes = net
        with pytest.raises(ValueError):
            network.set_partition([[0, 1], [1, 2]])

    def test_loss_rate_drops_messages(self):
        sim = Simulator()
        network = Network(
            sim, latency=FixedLatency(1.0), rng=np.random.default_rng(7), loss_rate=0.5
        )
        a = Recorder(0, sim, network)
        b = Recorder(1, sim, network)
        for _ in range(200):
            a.send(1, "x")
        sim.run()
        assert 50 < len(b.received) < 150

    def test_invalid_loss_rate(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Network(sim, loss_rate=1.5)


class TestTrace:
    def test_bits_accounted(self, net):
        sim, network, nodes = net
        nodes[0].send(1, "a", size_bits=100.0, kind="proto.a")
        nodes[0].send(2, "b", size_bits=50.0, kind="proto.b")
        sim.run()
        assert network.trace.total_bits == 150.0
        assert network.trace.bits(kind="proto.a") == 100.0
        assert network.trace.bits(prefix="proto.") == 150.0
        assert network.trace.messages() == 2

    def test_dropped_messages_not_counted(self, net):
        sim, network, nodes = net
        network.crash(1)
        nodes[0].send(1, "a", size_bits=100.0)
        sim.run()
        assert network.trace.total_bits == 0.0

    def test_trace_reset(self, net):
        sim, network, nodes = net
        nodes[0].send(1, "a", size_bits=10.0)
        sim.run()
        network.trace.reset()
        assert network.trace.total_bits == 0.0
        assert network.trace.messages() == 0

    def test_record_keeping(self):
        sim = Simulator()
        trace = TraceRecorder(keep_records=True)
        network = Network(sim, latency=FixedLatency(2.0), trace=trace)
        a = Recorder(0, sim, network)
        Recorder(1, sim, network)
        a.send(1, "x", size_bits=8, kind="k")
        sim.run()
        assert len(trace.records) == 1
        rec = trace.records[0]
        assert (rec.src, rec.dst, rec.kind, rec.bits) == (0, 1, "k", 8)


class TestLatencyModels:
    def test_uniform_latency_in_range(self):
        rng = np.random.default_rng(0)
        model = UniformLatency(5.0, 10.0)
        samples = [model.sample(0, 1, rng) for _ in range(100)]
        assert all(5.0 <= s <= 10.0 for s in samples)
        assert len(set(samples)) > 1

    def test_gaussian_latency_floor(self):
        rng = np.random.default_rng(0)
        model = GaussianLatency(1.0, 10.0, floor_ms=0.5)
        samples = [model.sample(0, 1, rng) for _ in range(100)]
        assert min(samples) >= 0.5

    def test_fixed_latency_rejects_negative(self):
        with pytest.raises(ValueError):
            FixedLatency(-1.0)

    def test_uniform_latency_rejects_bad_range(self):
        with pytest.raises(ValueError):
            UniformLatency(10.0, 5.0)


class TestHotPathCaches:
    """The send() fast path and the cached id lists must stay coherent
    with register/crash/recover/partition state changes."""

    def test_fault_free_fast_path(self, net):
        sim, network, nodes = net
        assert network._fault_free
        assert network.link_up(0, 1)

    def test_crash_and_recover_toggle_fast_path(self, net):
        sim, network, nodes = net
        network.crash(1)
        assert not network._fault_free
        assert not network.link_up(0, 1)
        assert network.link_up(0, 2)
        network.recover(1)
        assert network._fault_free
        assert network.link_up(0, 1)

    def test_partition_toggles_fast_path(self, net):
        sim, network, nodes = net
        network.set_partition([[0, 1], [2, 3]])
        assert not network._fault_free
        assert network.link_up(0, 1)
        assert not network.link_up(0, 2)
        network.set_partition(None)
        assert network._fault_free
        assert network.link_up(0, 2)

    def test_heal_with_crashed_node_keeps_slow_path(self, net):
        sim, network, nodes = net
        network.crash(3)
        network.set_partition([[0, 1], [2, 3]])
        network.set_partition(None)
        assert not network._fault_free  # node 3 is still down
        assert not network.link_up(0, 3)
        network.recover(3)
        assert network._fault_free

    def test_alive_ids_cache_invalidation(self, net):
        sim, network, nodes = net
        assert network.alive_ids() == [0, 1, 2, 3]
        network.crash(2)
        assert network.alive_ids() == [0, 1, 3]
        network.recover(2)
        assert network.alive_ids() == [0, 1, 2, 3]

    def test_node_ids_cache_invalidation(self, net):
        sim, network, nodes = net
        assert network.node_ids() == [0, 1, 2, 3]
        Recorder(7, sim, network)
        assert network.node_ids() == [0, 1, 2, 3, 7]
        assert network.alive_ids() == [0, 1, 2, 3, 7]


def test_wire_round_in_flight_peaks():
    from repro.core.topology import Topology
    from repro.core.wire_round import run_two_layer_wire_round
    from repro.obs import runtime as _runtime

    topo = Topology.by_group_size(6, 3)
    rng = np.random.default_rng(0)
    models = [rng.normal(size=16) for _ in range(topo.n_peers)]
    with _runtime.observe():
        result = run_two_layer_wire_round(topo, models, k=2, seed=0)
    assert result.outcome.ok
    # The accounting is wired into Network.physical_send/deliver;
    # peaks are visible on the sim heap too.
    stats = Simulator().heap_stats()
    assert set(stats) == {"pending", "entries", "dead", "live",
                          "peak_pending", "scheduled_total",
                          "events_processed", "compactions"}
