"""Per-link telemetry: EWMA/windowed latency from causal send/deliver
pairing, loss and retransmit rates from the reliable transport, and the
Prometheus publication of the matrix."""

import numpy as np

from repro.obs import runtime as _runtime
from repro.obs.link import (
    DEFAULT_ALPHA,
    DEFAULT_MAX_PENDING,
    DEFAULT_WINDOW,
    LinkStats,
    LinkTelemetry,
)
from repro.obs.metrics import MetricsRegistry
from repro.secure.protocol import run_sac_protocol


def _models(n, d=24, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=d) for _ in range(n)]


class TestLinkStats:
    def test_ewma_converges_on_constant_input(self):
        s = LinkStats(src=0, dst=1)
        for _ in range(10):
            s.observe_latency(20.0)
        assert s.latency_ewma_ms == 20.0
        assert s.latency_window_ms == 20.0

    def test_ewma_weights_recent_samples(self):
        s = LinkStats(src=0, dst=1)
        s.observe_latency(10.0)
        s.observe_latency(20.0)
        assert s.latency_ewma_ms == 10.0 + DEFAULT_ALPHA * (20.0 - 10.0)

    def test_window_is_bounded(self):
        s = LinkStats(src=0, dst=1)
        n = DEFAULT_WINDOW + 6
        for v in range(n):
            s.observe_latency(float(v))
            s.observe_outcome(delivered=v % 2 == 0)
        assert len(s._latencies) == DEFAULT_WINDOW
        assert len(s._outcomes) == DEFAULT_WINDOW
        assert s.latency_window_ms == sum(range(6, n)) / DEFAULT_WINDOW

    def test_loss_and_retransmit_rates(self):
        s = LinkStats(src=0, dst=1)
        s.sends = 4
        s.retransmits = 2
        s.observe_outcome(True)
        s.observe_outcome(False)
        assert s.loss_rate == 0.5
        assert s.retransmit_rate == 0.5


class TestLinkTelemetry:
    def test_fixed_latency_round_measures_the_model(self):
        # Every delivered message on the default wire takes exactly the
        # FixedLatency 15 ms, so every estimator must read 15.0.
        with _runtime.observe(causal=True) as obs:
            link = obs.attach_link()
            run_sac_protocol(_models(4), k=3, seed=0)
        assert link.pairs()
        for stats in link.pairs().values():
            assert stats.latency_ewma_ms == 15.0
            assert stats.latency_window_ms == 15.0
            assert stats.loss_rate == 0.0

    def test_lossy_reliable_round_counts_drops_and_retransmits(self):
        with _runtime.observe(causal=True) as obs:
            link = obs.attach_link()
            result = run_sac_protocol(
                _models(6), k=4, seed=0, loss_rate=0.25,
                transport="reliable",
            )
        assert result.outcome.ok
        totals = link.pairs().values()
        # The default view excludes transport ACK frames, so compare
        # against the non-ACK event counts (result.drops includes ACKs).
        def _non_ack(name):
            return sum(1 for e in obs.events_named(name)
                       if e.fields.get("kind") != "net.ack")

        assert sum(s.dropped for s in totals) == _non_ack("net.drop")
        assert sum(s.retransmits for s in totals) \
            == _non_ack("net.retransmit")
        assert result.drops >= _non_ack("net.drop") > 0
        # Latency is logical: send -> first delivery of the span, so a
        # dropped first copy shows up as wire latency + the RTO wait.
        latencies = [s.last_latency_ms for s in totals
                     if s.last_latency_ms is not None]
        assert latencies and min(latencies) == 15.0
        assert all(lat >= 15.0 for lat in latencies)
        assert max(latencies) > 15.0  # at least one retransmitted frame

    def test_without_causal_only_counts_accumulate(self):
        with _runtime.observe() as obs:
            link = obs.attach_link()
            run_sac_protocol(_models(4), k=3, seed=0)
        for stats in link.pairs().values():
            assert stats.delivered > 0
            assert stats.latency_ewma_ms is None  # no spans to pair

    def test_ack_frames_are_excluded_by_default(self):
        with _runtime.observe(causal=True) as obs:
            link = obs.attach_link()
            run_sac_protocol(
                _models(4), k=3, seed=0, transport="reliable",
            )
        delivered = obs.events_named("net.deliver")
        acks = [e for e in delivered if e.fields.get("kind") == "net.ack"]
        assert acks  # ACKs double the traffic ...
        assert sum(s.delivered for s in link.pairs().values()) == (
            len(delivered) - len(acks)  # ... and are not counted
        )

    def test_pending_map_is_bounded(self):
        link = LinkTelemetry()
        from repro.obs.bus import Event

        for i in range(DEFAULT_MAX_PENDING + 50):
            link(Event(seq=i, name="net.send", t_ms=float(i), wall_s=0.0,
                       node=0, fields={"dst": 1, "kind": "x",
                                       "span": f"0>1:x#{i}"}))
        assert link.snapshot()["in_flight"] == DEFAULT_MAX_PENDING

    def test_sustained_loss_bounds_pending_without_corrupting_ewma(self):
        # A black-holed link: sends whose deliveries never come must not
        # grow the pending map, and the evictions must not distort the
        # latency estimators of the healthy link sharing the telemetry.
        from repro.obs.bus import Event

        link = LinkTelemetry()
        seq = 0

        def send(src, dst, t, tag):
            nonlocal seq
            link(Event(seq=seq, name="net.send", t_ms=t, wall_s=0.0,
                       node=src, fields={"dst": dst, "kind": "x",
                                         "span": tag}))
            seq += 1

        def deliver(src, dst, t, tag):
            nonlocal seq
            link(Event(seq=seq, name="net.deliver", t_ms=t, wall_s=0.0,
                       node=src, fields={"dst": dst, "kind": "x",
                                         "span": tag}))
            seq += 1

        n = DEFAULT_MAX_PENDING + 500
        for i in range(n):
            # lost frame into the black hole ...
            send(0, 9, float(i), f"0>9:x#{i}")
            link(Event(seq=seq, name="net.drop", t_ms=float(i), wall_s=0.0,
                       node=0, fields={"dst": 9, "kind": "x"}))
            seq += 1
            # ... while the healthy link keeps a constant 15 ms latency.
            send(1, 2, float(i), f"1>2:x#{i}")
            deliver(1, 2, float(i) + 15.0, f"1>2:x#{i}")
        assert link.snapshot()["in_flight"] <= DEFAULT_MAX_PENDING
        healthy = link.pair(1, 2)
        assert healthy.latency_ewma_ms == 15.0
        assert healthy.latency_window_ms == 15.0
        assert healthy.loss_rate == 0.0
        lossy = link.pair(0, 9)
        assert lossy.dropped == n
        assert lossy.loss_rate == 1.0
        assert lossy.latency_ewma_ms is None  # nothing ever delivered

    def test_matrix_and_snapshot_shapes(self):
        with _runtime.observe(causal=True) as obs:
            link = obs.attach_link()
            run_sac_protocol(_models(4), k=3, seed=0)
        matrix = link.matrix()
        assert all(isinstance(k, tuple) and len(k) == 2 for k in matrix)
        snap = link.snapshot()
        assert {p["src"] for p in snap["pairs"]} \
            == {src for src, _ in matrix}
        assert snap["in_flight"] == 0  # everything delivered

    def test_publish_writes_link_gauges(self):
        with _runtime.observe(causal=True) as obs:
            link = obs.attach_link()
            run_sac_protocol(_models(4), k=3, seed=0)
        registry = MetricsRegistry()
        link.publish(registry)
        text = registry.render_prometheus()
        assert "link_latency_ewma_ms" in text
        assert "link_loss_rate" in text
        assert "link_retransmit_rate" in text
        assert 'src="0"' in text
