"""Tests for uplink serialization, including validation of the analytic
round-latency model against the wire simulation."""

import numpy as np
import pytest

from repro.core.latency import two_layer_round_latency_ms
from repro.core.topology import Topology
from repro.core.wire_round import run_two_layer_wire_round
from repro.simnet import FixedLatency, Network, SimNode, Simulator


class Recorder(SimNode):
    def __init__(self, node_id, sim, network):
        super().__init__(node_id, sim, network)
        self.received = []

    def on_message(self, src, msg):
        self.received.append((self.sim.now, msg))


def build(**kw):
    sim = Simulator()
    network = Network(
        sim, latency=FixedLatency(10.0), rng=np.random.default_rng(0), **kw
    )
    nodes = [Recorder(i, sim, network) for i in range(3)]
    return sim, network, nodes


class TestUplinkSerialization:
    def test_two_sends_serialize(self):
        sim, network, nodes = build(bandwidth_bps=1e6, serialize_uplink=True)
        # 1 Mb each at 1 Mb/s = 1000 ms transfer.
        nodes[0].send(1, "a", size_bits=1e6)
        nodes[0].send(2, "b", size_bits=1e6)
        sim.run()
        assert nodes[1].received[0][0] == pytest.approx(1000.0 + 10.0)
        assert nodes[2].received[0][0] == pytest.approx(2000.0 + 10.0)

    def test_parallel_without_serialization(self):
        sim, network, nodes = build(bandwidth_bps=1e6, serialize_uplink=False)
        nodes[0].send(1, "a", size_bits=1e6)
        nodes[0].send(2, "b", size_bits=1e6)
        sim.run()
        assert nodes[1].received[0][0] == pytest.approx(1010.0)
        assert nodes[2].received[0][0] == pytest.approx(1010.0)

    def test_distinct_senders_do_not_contend(self):
        sim, network, nodes = build(bandwidth_bps=1e6, serialize_uplink=True)
        nodes[0].send(2, "a", size_bits=1e6)
        nodes[1].send(2, "b", size_bits=1e6)
        sim.run()
        times = sorted(t for t, _ in nodes[2].received)
        assert times[0] == pytest.approx(1010.0)
        assert times[1] == pytest.approx(1010.0)

    def test_uplink_frees_over_time(self):
        sim, network, nodes = build(bandwidth_bps=1e6, serialize_uplink=True)
        nodes[0].send(1, "a", size_bits=1e6)
        sim.schedule(5_000.0, lambda: nodes[0].send(1, "b", size_bits=1e6))
        sim.run()
        # Second transfer starts fresh at t=5000.
        assert nodes[1].received[1][0] == pytest.approx(6010.0)

    def test_control_messages_free(self):
        sim, network, nodes = build(bandwidth_bps=1e3, serialize_uplink=True)
        nodes[0].send(1, "ping", size_bits=0.0)
        sim.run()
        assert nodes[1].received[0][0] == pytest.approx(10.0)

    def test_requires_bandwidth(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Network(sim, serialize_uplink=True)


class TestLatencyModelValidation:
    @pytest.mark.parametrize("n,k", [(3, 2), (5, 3), (5, 5), (4, 3)])
    def test_analytic_sac_latency_matches_wire(self, n, k):
        """core.latency's uplink-serialized SAC time (plus the leader's
        broadcast back) must equal the measured finish time of a
        one-subgroup round."""
        size = 1000
        bandwidth = 1e6
        topo = Topology.by_group_count(n, 1)
        models = [np.random.default_rng(i).normal(size=size) for i in range(n)]
        result = run_two_layer_wire_round(
            topo, models, k=k, bandwidth_bps=bandwidth, serialize_uplink=True,
        )
        assert result.outcome.ok
        predicted = two_layer_round_latency_ms(topo, k, size, bandwidth).total_ms
        assert result.finish_time_ms == pytest.approx(predicted, rel=0.15)
