"""Unit tests for the reliable (ACK/retransmit) transport layer."""

import numpy as np
import pytest

from repro.chaos import Crash, FaultSchedule, Recover
from repro.simnet import FixedLatency, Network, SimNode, Simulator
from repro.simnet.reliable import (
    ACK_BITS,
    FRAME_HEADER_BITS,
    AckFrame,
    DataFrame,
    ReliableTransport,
    check_transport,
)


class Recorder(SimNode):
    def __init__(self, node_id, sim, network):
        super().__init__(node_id, sim, network)
        self.received = []

    def on_message(self, src, msg):
        self.received.append((self.sim.now, src, msg))


def make_net(loss_rate=0.0, seed=0, **transport_opts):
    sim = Simulator()
    network = Network(
        sim, latency=FixedLatency(10.0), rng=np.random.default_rng(seed),
        loss_rate=loss_rate, transport="reliable",
        transport_opts=transport_opts or None,
    )
    nodes = [Recorder(i, sim, network) for i in range(3)]
    return sim, network, nodes


class DroppingSend:
    """Deterministically drop selected physical attempts (by kind)."""

    def __init__(self, network, drop_kinds_counts):
        self._orig = network.physical_send
        self._network = network
        self.remaining = dict(drop_kinds_counts)

    def __call__(self, src, dst, msg, size_bits=0.0, kind="msg", **kw):
        if self.remaining.get(kind, 0) > 0:
            self.remaining[kind] -= 1
            return  # vanished on the wire
        self._orig(src, dst, msg, size_bits=size_bits, kind=kind, **kw)


class TestFrames:
    def test_frame_sizes_include_header(self):
        frame = DataFrame(0, "x", 100.0, "msg")
        assert frame.size_bits() == 100.0 + FRAME_HEADER_BITS
        assert AckFrame(0).size_bits() == ACK_BITS

    def test_check_transport_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown transport"):
            check_transport("udp")
        assert check_transport("reliable") == "reliable"

    def test_transport_opts_require_reliable(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="transport_opts"):
            Network(sim, transport="fire_and_forget",
                    transport_opts={"max_attempts": 2})

    def test_invalid_opts_rejected(self):
        sim = Simulator()
        net = Network(sim)
        with pytest.raises(ValueError):
            ReliableTransport(net, base_rto_ms=0.0)
        with pytest.raises(ValueError):
            ReliableTransport(net, max_attempts=0)


class TestLossless:
    def test_delivered_once_with_one_ack(self):
        sim, network, nodes = make_net()
        nodes[0].send(1, "hello", size_bits=64.0)
        sim.run()
        assert nodes[1].received == [(10.0, 0, "hello")]
        rt = network.reliable
        assert rt.retransmits == 0
        assert rt.acks_sent == 1
        assert rt.duplicates_suppressed == 0
        assert not rt._pending  # ACK cancelled the RTO

    def test_ack_and_header_bits_are_traced(self):
        sim, network, nodes = make_net()
        nodes[0].send(1, "hello", size_bits=100.0)
        sim.run()
        # one data frame (payload + header) + one ACK, both delivered
        assert network.trace.total_bits == 100.0 + FRAME_HEADER_BITS + ACK_BITS
        assert network.trace.total_messages == 2


class TestRetransmission:
    def test_lost_frame_is_retransmitted_and_delivered(self):
        sim, network, nodes = make_net(base_rto_ms=40.0)
        network.physical_send = DroppingSend(network, {"msg": 1})
        nodes[0].send(1, "payload", size_bits=64.0)
        sim.run()
        # first attempt dropped; retransmit fires at t=40, lands at t=50
        assert nodes[1].received == [(50.0, 0, "payload")]
        assert network.reliable.retransmits == 1

    def test_backoff_doubles_between_attempts(self):
        sim, network, nodes = make_net(base_rto_ms=40.0)
        network.physical_send = DroppingSend(network, {"msg": 2})
        nodes[0].send(1, "payload", size_bits=64.0)
        sim.run()
        # drops at t=0 and t=40; third attempt at t=40+80, +10ms latency
        assert nodes[1].received == [(130.0, 0, "payload")]
        assert network.reliable.retransmits == 2

    def test_lost_ack_triggers_duplicate_which_is_suppressed(self):
        sim, network, nodes = make_net(base_rto_ms=40.0)
        network.physical_send = DroppingSend(network, {"net.ack": 1})
        nodes[0].send(1, "payload", size_bits=64.0)
        sim.run()
        # data arrives twice (ACK #1 lost), app sees it exactly once
        assert nodes[1].received == [(10.0, 0, "payload")]
        rt = network.reliable
        assert rt.retransmits == 1
        assert rt.acks_sent == 2
        assert rt.duplicates_suppressed == 1

    def test_random_loss_eventually_delivers(self):
        sim, network, nodes = make_net(loss_rate=0.4, seed=7, base_rto_ms=30.0)
        for i in range(10):
            nodes[0].send(1, f"m{i}", size_bits=64.0)
        sim.run()
        got = sorted(msg for _, _, msg in nodes[1].received)
        assert got == sorted(f"m{i}" for i in range(10))
        assert network.reliable.retransmits > 0


class TestExhaustion:
    def test_budget_exhausted_against_dead_destination(self):
        sim, network, nodes = make_net(base_rto_ms=20.0, max_attempts=3)
        network.crash(1)
        nodes[0].send(1, "payload", size_bits=64.0)
        sim.run()
        rt = network.reliable
        assert len(rt.exhausted) == 1
        assert rt.exhausted[0].delivered is False
        # dst is crashed: the protocol layer's problem, not the transport's
        assert rt.exhausted_undelivered == 0
        assert not rt._pending

    def test_exhaustion_against_alive_destination_is_flagged(self):
        sim, network, nodes = make_net(base_rto_ms=20.0, max_attempts=3)
        network.physical_send = DroppingSend(network, {"msg": 3})
        nodes[0].send(1, "payload", size_bits=64.0)
        sim.run()
        rt = network.reliable
        assert nodes[1].received == []
        assert rt.exhausted_undelivered == 1


class TestSenderCrash:
    def test_permanently_dead_sender_abandons_pending(self):
        sim, network, nodes = make_net(base_rto_ms=20.0)
        network.physical_send = DroppingSend(network, {"msg": 1})
        nodes[0].send(1, "payload", size_bits=64.0)
        sim.schedule_at(5.0, lambda: network.crash(0))
        sim.run()
        rt = network.reliable
        assert nodes[1].received == []
        assert not rt._pending
        assert rt.exhausted == []  # abandoned, not exhausted

    def test_recovering_sender_holds_and_resends_after_rejoin(self):
        sim, network, nodes = make_net(base_rto_ms=20.0)
        FaultSchedule([Crash(5.0, 0), Recover(100.0, 0)]).arm(sim, network)
        network.physical_send = DroppingSend(network, {"msg": 1})
        nodes[0].send(1, "payload", size_bits=64.0)
        sim.run()
        # frame held through the outage (attempts unburned) and resent
        assert [msg for _, _, msg in nodes[1].received] == ["payload"]
        assert network.reliable.exhausted == []


class TestFireAndForgetUnchanged:
    def test_default_transport_has_no_reliable_channel(self):
        sim = Simulator()
        network = Network(sim, latency=FixedLatency(10.0))
        nodes = [Recorder(i, sim, network) for i in range(2)]
        assert network.reliable is None
        nodes[0].send(1, "x", size_bits=100.0)
        sim.run()
        # no framing overhead, no ACK
        assert network.trace.total_bits == 100.0
        assert network.trace.total_messages == 1
