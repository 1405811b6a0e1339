"""Causal tracing: every message span links into a DAG whose critical
path reproduces the round's simulated latency exactly — clean rounds,
SAC dropout recovery, chaos schedules with retransmission, and reruns."""

import numpy as np

from repro.chaos import Crash, FaultSchedule, LossWindow, Recover
from repro.core.topology import Topology
from repro.core.wire_round import run_two_layer_wire_round
from repro.obs import runtime as _runtime
from repro.obs.causal import (
    TraceContext,
    build_dag,
    critical_path,
    critical_paths_by_trace,
    make_span_id,
)
from repro.obs.export import to_chrome_trace
from repro.secure.protocol import run_sac_protocol


def _models(n, d=24, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=d) for _ in range(n)]


def _wire(seed=3, **kw):
    topo = Topology.by_group_size(9, 3)
    with _runtime.observe(causal=True) as obs:
        result = run_two_layer_wire_round(
            topo, _models(topo.n_peers, seed=seed), k=2, seed=seed, **kw,
        )
    return result, obs


class TestSpanPlumbing:
    def test_causal_off_emits_no_send_events(self):
        with _runtime.observe() as obs:
            run_sac_protocol(_models(4), k=3, seed=0)
        assert not obs.events_named("net.send")
        assert all("span" not in e.fields
                   for e in obs.events_named("net.deliver"))

    def test_causal_on_pairs_sends_and_delivers(self):
        with _runtime.observe(causal=True) as obs:
            run_sac_protocol(_models(4), k=3, seed=0)
        sends = obs.events_named("net.send")
        assert sends
        sent_spans = {e.fields["span"] for e in sends}
        for e in obs.events_named("net.deliver"):
            assert e.fields["span"] in sent_spans

    def test_span_ids_are_deterministic_channel_counters(self):
        _, obs = _wire(seed=3)
        first = next(e for e in obs.events_named("net.send"))
        src, dst = first.node, first.fields["dst"]
        kind = first.fields["kind"]
        assert first.fields["span"] == make_span_id(src, dst, kind, 0)
        assert first.fields["span"] == f"{src}>{dst}:{kind}#0"

    def test_trace_context_child_fields(self):
        ctx = TraceContext("t", "a>b:x#0", parent_id="root")
        assert ctx.child_fields() == {
            "span": "a>b:x#0", "parent": "root", "trace": "t",
        }


class TestCriticalPath:
    def test_clean_round_path_equals_finish_time(self):
        result, obs = _wire(seed=3)
        cp = critical_path(obs.events)
        assert cp is not None
        assert cp.latency_ms == result.finish_time_ms
        assert cp.start_ms == 0.0
        # Two-layer chain: share -> subtotal -> upload -> bcast -> bcast.
        assert [h.kind for h in cp.hops] == [
            "sac.share", "sac.subtotal", "fed.upload",
            "fed.bcast", "sub.bcast",
        ]

    def test_sac_dropout_recovery_extends_the_path(self):
        # Crash the last peer mid-round: the leader's Alg. 4 replica
        # fetch becomes the longest chain, and its end is the finish.
        with _runtime.observe(causal=True) as obs:
            result = run_sac_protocol(
                _models(4), k=3, seed=1, crash_at={3: 20.0},
            )
        assert result.outcome.ok
        cp = critical_path(obs.events)
        assert cp.latency_ms == result.finish_time_ms
        assert any(h.kind == "sac.recover" for h in cp.hops)

    def test_chaos_round_with_retransmits_is_still_exact(self):
        schedule = FaultSchedule([
            Crash(10.0, 4), Recover(120.0, 4), LossWindow(5.0, 60.0, 0.3),
        ])
        result, obs = _wire(
            seed=0, schedule=schedule, transport="reliable",
        )
        assert result.outcome.ok
        cp = critical_path(obs.events)
        assert cp.latency_ms == result.finish_time_ms
        # The loss window forced at least one retransmission somewhere.
        assert obs.events_named("net.retransmit")

    def test_paths_by_trace_separates_rounds(self):
        with _runtime.observe(causal=True) as obs:
            r1 = run_sac_protocol(_models(4), k=3, seed=0)
            r2 = run_sac_protocol(_models(4), k=3, seed=1)
        paths = critical_paths_by_trace(obs.events)
        assert set(paths) == {"sac:s0", "sac:s1"}
        assert paths["sac:s0"].latency_ms == r1.finish_time_ms
        assert paths["sac:s1"].latency_ms == r2.finish_time_ms

    def test_format_renders_hop_table(self):
        _, obs = _wire(seed=3)
        text = critical_path(obs.events).format()
        assert "sac.share" in text and "flight" in text


class TestDag:
    def test_chains_are_rooted_and_acyclic(self):
        _, obs = _wire(seed=3)
        dag = build_dag(obs.events)
        assert dag.roots()
        for span_id in dag.spans:
            chain = dag.chain(span_id)
            assert chain[0].parent_id is None
            assert chain[-1].span_id == span_id

    def test_duplicate_delivery_keeps_first(self):
        # Under loss + retransmission a frame can deliver twice; the
        # span must keep the first delivery time.
        schedule = FaultSchedule([LossWindow(1.0, 80.0, 0.4)])
        _, obs = _wire(seed=2, schedule=schedule, transport="reliable")
        dag = build_dag(obs.events)
        delivers = {}
        for e in obs.events_named("net.deliver"):
            span = e.fields.get("span")
            if span is not None:
                delivers.setdefault(span, e.t_ms)
        for span_id, first_t in delivers.items():
            assert dag.spans[span_id].deliver_ms == first_t


class TestRerun:
    def test_same_spans_and_path_on_rerun(self):
        r_a, o_a = _wire(seed=5)
        r_b, o_b = _wire(seed=5)
        cp_a = critical_path(o_a.events)
        cp_b = critical_path(o_b.events)
        assert r_b.finish_time_ms == r_a.finish_time_ms
        assert [h.span_id for h in cp_b.hops] == \
            [h.span_id for h in cp_a.hops]
        assert cp_b.latency_ms == r_b.finish_time_ms


class TestChromeFlows:
    def test_flow_events_connect_send_to_deliver(self):
        _, obs = _wire(seed=3)
        doc = to_chrome_trace(obs.events)
        flows = [r for r in doc["traceEvents"]
                 if r.get("ph") in ("s", "t", "f")]
        assert flows
        starts = {r["id"] for r in flows if r["ph"] == "s"}
        finishes = [r for r in flows if r["ph"] == "f"]
        assert finishes
        for r in finishes:
            assert r["id"] in starts
            assert r["bp"] == "e"
