"""Determinism contract of the lossy + reliable item-wave engine.

``send_batch`` under ``transport="reliable"`` (or a fault timeline)
routes through the item-wave path: the whole stop-and-wait
ACK/retransmit state machine is precomputed as per-attempt cohorts in
numpy, then replayed through the heap.  The contract under test:

- **wave == per-item replay** — for any loss rate, latency model and
  seed, the wave and the per-item model (``tests/simnet/per_item.py``)
  produce bit-identical delivery times, transport counters and trace
  totals (property-based below);
- **actor pin** — under :class:`FixedLatency` (no per-draw RNG, so the
  per-message actor loop and the per-epoch cohort loop see the same
  uniform stream) the item wave reproduces the live
  ``net.send``-per-message transport's arrival times, clock and
  counters bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet import FixedLatency, Network, Simulator

from .latency import GaussianLatency, UniformLatency
from .per_item import REPLAYS, actor_arrivals

#: NaN (never arrived) and ``inf`` (never landed) are sentinels here: an
#: arithmetic warning on them is a bug, not noise.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

LATENCIES = {
    "fixed": lambda: FixedLatency(10.0),
    "uniform": lambda: UniformLatency(4.0, 30.0),
    "gauss": lambda: GaussianLatency(18.0, 5.0),
}


class Stub:
    """Minimal actor: records ``(now, src, msg)`` arrival tuples."""

    def __init__(self, node_id, sim):
        self.node_id = node_id
        self.sim = sim
        self.received = []

    def deliver(self, src, msg):
        self.received.append((self.sim.now, src, msg))


def _reliable_net(seed, latency, loss, n_nodes=0, rto=60.0, max_attempts=8):
    sim = Simulator()
    net = Network(
        sim, latency=latency, rng=np.random.default_rng(seed),
        loss_rate=loss, transport="reliable",
        transport_opts={"base_rto_ms": rto, "max_attempts": max_attempts},
    )
    nodes = [Stub(i, sim) for i in range(n_nodes)]
    for nd in nodes:
        net.register(nd)
    return sim, net, nodes


def _counters(net):
    rel = net.reliable
    return (
        rel.retransmits, rel.acks_sent, rel.duplicates_suppressed,
        len(rel.exhausted), rel.exhausted_undelivered,
        net.trace.total_bits, net.trace.total_messages,
        net.trace.total_dropped,
    )


def _pairs(rng, n_nodes, m):
    src = rng.integers(0, n_nodes, size=m)
    dst = (src + 1 + rng.integers(0, n_nodes - 1, size=m)) % n_nodes
    return src, dst


@settings(max_examples=25, deadline=None)
@given(
    loss=st.floats(min_value=0.001, max_value=0.3),
    lat=st.sampled_from(sorted(LATENCIES)),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_engines_bit_identical_under_loss(loss, lat, seed):
    """Any loss in (0, 0.3] x latency model x seed: wave == per-item."""
    m, n_nodes = 120, 12
    rng = np.random.default_rng(seed)
    src, dst = _pairs(rng, n_nodes, m)
    results = {}
    times = {}
    for side, replay in REPLAYS:
        with replay():
            sim, net, _ = _reliable_net(
                seed=seed + 1, latency=LATENCIES[lat](), loss=loss,
                max_attempts=6,
            )
            wave = net.send_batch(src, dst, size_bits=64.0, kind="x")
            sim.run()
        times[side] = wave.delivery_times
        results[side] = (sim.now, _counters(net), net.in_flight)
    # NaN marks never-delivered; equal_nan compares those slots too.
    np.testing.assert_array_equal(times["wave"], times["per_item"])
    assert results["wave"] == results["per_item"]


@settings(max_examples=15, deadline=None)
@given(
    loss=st.floats(min_value=0.05, max_value=0.3),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_bulk_accounting_identical_under_loss(loss, seed):
    """Timing-only batches (no msgs): same counters, totals, times."""
    rng = np.random.default_rng(seed)
    src, dst = _pairs(rng, 20, 400)
    results = {}
    times = {}
    for side, replay in REPLAYS:
        with replay():
            sim, net, _ = _reliable_net(
                seed=seed, latency=UniformLatency(4.0, 30.0), loss=loss,
                max_attempts=6,
            )
            wave = net.send_batch(src, dst, size_bits=32.0, kind="bulk")
            sim.run()
        times[side] = wave.delivery_times
        results[side] = (sim.now, _counters(net), net.in_flight)
        if side == "per_item":  # the model's self-check: one event per item
            heap = sim.heap_stats()
            assert heap["events_processed"] == heap["scheduled_total"]
    np.testing.assert_array_equal(times["wave"], times["per_item"])
    assert results["wave"] == results["per_item"]
    assert results["wave"][2] == 0  # in-flight gauge drained


def test_item_wave_matches_actor_loop_under_fixed_latency():
    """The pinned actor-fidelity point: FixedLatency, rto > 2L, 20% loss.

    FixedLatency draws nothing from the RNG, so the actor loop's
    per-message draw order coincides with the wave engine's per-epoch
    cohort order and the two are bitwise comparable.
    """
    m, n_nodes = 80, 40
    src = np.arange(m, dtype=np.int64) % n_nodes
    dst = (src + 7) % n_nodes

    sim_a, net_a, nodes_a = _reliable_net(
        seed=3, latency=FixedLatency(10.0), loss=0.2, n_nodes=n_nodes,
    )
    for i, (s, d) in enumerate(zip(src, dst)):
        net_a.send(int(s), int(d), i, size_bits=64.0, kind="x")
    sim_a.run()

    sim_w, net_w, _ = _reliable_net(
        seed=3, latency=FixedLatency(10.0), loss=0.2,
    )
    wave = net_w.send_batch(src, dst, size_bits=64.0, kind="x")
    sim_w.run()

    np.testing.assert_array_equal(wave.delivery_times,
                                  actor_arrivals(nodes_a, m))
    assert sim_a.now == sim_w.now
    assert _counters(net_a) == _counters(net_w)
    assert net_w.reliable.retransmits > 0  # the loss actually bit


def test_item_wave_matches_actor_loop_between_instants():
    """The same pinned point, looked at by timers 5.5 ms past every 10 ms
    step of the lattice: clock, transport counters and trace totals so
    far equal the actor loop's at each look.  Totals at the end cannot
    tell which arrival of a message was its first: a wave that took an
    ACK-lost first arrival for a duplicate and its retransmission for
    the payload ends with the same counts."""
    m, n_nodes = 80, 40
    src = np.arange(m, dtype=np.int64) % n_nodes
    dst = (src + 7) % n_nodes
    looks = {}
    for side in ("actor", "wave"):
        sim, net, nodes = _reliable_net(
            seed=3, latency=FixedLatency(10.0), loss=0.2,
            n_nodes=n_nodes if side == "actor" else 0,
        )
        seen = looks[side] = []

        def look(sim=sim, net=net, seen=seen):
            seen.append((sim.now, _counters(net)))

        for step in range(100):
            sim.schedule(10.0 * step + 5.5, look)
        if side == "actor":
            for i, (s, d) in enumerate(zip(src, dst)):
                net.send(int(s), int(d), i, size_bits=64.0, kind="x")
        else:
            net.send_batch(src, dst, size_bits=64.0, kind="x")
        sim.run()
    assert looks["wave"] == looks["actor"]
    # Duplicates arrive, and at more than one look.
    assert len({counters[2] for _, counters in looks["actor"]}) > 2


def test_exhaustion_identical_and_marked_nan():
    """A 1-attempt budget at heavy loss: exhaustion counters and the
    NaN never-delivered markers agree with the per-item model."""
    rng = np.random.default_rng(5)
    src, dst = _pairs(rng, 10, 300)
    results = {}
    times = {}
    for side, replay in REPLAYS:
        with replay():
            sim, net, _ = _reliable_net(
                seed=5, latency=FixedLatency(10.0), loss=0.5, max_attempts=1,
            )
            wave = net.send_batch(src, dst, size_bits=8.0)
            sim.run()
        times[side] = wave.delivery_times
        results[side] = _counters(net)
    np.testing.assert_array_equal(times["wave"], times["per_item"])
    assert results["wave"] == results["per_item"]
    assert len(times["wave"]) == 300
    n_lost = int(np.isnan(times["wave"]).sum())
    assert n_lost > 0  # ~50% frame loss, single attempt
    assert results["wave"][3] >= n_lost  # exhausted >= undelivered


def test_wave_uses_fewer_heap_events_under_reliable():
    rng = np.random.default_rng(2)
    src, dst = _pairs(rng, 20, 1000)
    counts = {}
    for side, replay in REPLAYS:
        with replay():
            sim, net, _ = _reliable_net(
                seed=9, latency=GaussianLatency(15.0, 4.0), loss=0.2,
                max_attempts=6,
            )
            net.send_batch(src, dst, size_bits=8.0)
            sim.run()
        counts[side] = sim.heap_stats()["events_processed"]
    # The model pays one heap event per attempt item (>= 2 per message:
    # departure + arrival, plus retransmit/ACK traffic).
    assert counts["per_item"] > 2000
    assert counts["wave"] < counts["per_item"] / 10


def test_in_flight_gauge_under_reliable_waves():
    rng = np.random.default_rng(6)
    src, dst = _pairs(rng, 8, 200)
    sim, net, _ = _reliable_net(
        seed=8, latency=FixedLatency(10.0), loss=0.2, max_attempts=6,
    )
    net.send_batch(src, dst, size_bits=8.0)
    sim.run()
    assert net.in_flight == 0
    # Frames lost at issue never enter the gauge: the peak is the
    # largest surviving cohort, ~80% of the 200-message burst.
    assert net.peak_in_flight >= 120
