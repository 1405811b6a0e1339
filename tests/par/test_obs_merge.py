"""Observability merge plane under parallel execution.

``MetricsRegistry.merge_snapshot`` and ``EventBus.absorb`` are what let
``parallel="process"`` workers ship their pipelines home; the contract
is that the merged parent stream and registry are *bit-identical* to
the sequential run's — including the causal span fields — for any seed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.topology import Topology
from repro.core.wire_round import run_two_layer_wire_round
from repro.obs import runtime as _runtime
from repro.obs.bus import EventBus
from repro.obs.metrics import MetricsRegistry


def _run(mode, seed, causal=True):
    topo = Topology.by_group_size(9, 3)
    rng = np.random.default_rng(seed)
    models = [rng.normal(size=24) for _ in range(topo.n_peers)]
    with _runtime.observe(causal=causal) as obs:
        result = run_two_layer_wire_round(
            topo, models, k=2, seed=seed, parallel=mode,
        )
    return result, obs


def _event_set(obs):
    """Events as an order-insensitive multiset, wall fields excluded."""
    return sorted(
        (e.name, e.t_ms, e.node, e.dur_ms,
         tuple(sorted((k, repr(v)) for k, v in e.fields.items()
                      if not k.startswith("wall"))))
        for e in obs.events
    )


def _sim_metrics(obs):
    """Registry snapshot without wall-clock histogram values."""
    snap = obs.metrics.snapshot()
    return {name: fam for name, fam in snap.items()
            if "wall" not in name}


class TestMergeSnapshot:
    def test_counters_add_and_gauges_take_last(self):
        parent, w1, w2 = (MetricsRegistry() for _ in range(3))
        for reg, n in ((w1, 2), (w2, 5)):
            reg.counter("msgs_total", "m", labels=("kind",)) \
                .labels(kind="share").inc(n)
            reg.gauge("depth", "d").labels().set(float(n))
        parent.merge_snapshot(w1.snapshot())
        parent.merge_snapshot(w2.snapshot())
        text = parent.render_prometheus()
        assert 'msgs_total{kind="share"} 7' in text
        assert "depth 5" in text  # worker order: last write wins

    def test_histograms_merge_raw_values(self):
        parent, w1, w2 = (MetricsRegistry() for _ in range(3))
        w1.histogram("lat", "l").labels().observe(1.0)
        w1.histogram("lat", "l").labels().observe(3.0)
        w2.histogram("lat", "l").labels().observe(2.0)
        parent.merge_snapshot(w1.snapshot())
        parent.merge_snapshot(w2.snapshot())
        direct = MetricsRegistry()
        for v in (1.0, 3.0, 2.0):
            direct.histogram("lat", "l").labels().observe(v)
        assert parent.snapshot() == direct.snapshot()

    def test_merge_order_determinism(self):
        snaps = []
        for base in (1.0, 10.0):
            reg = MetricsRegistry()
            reg.counter("c", "c").labels().inc(base)
            snaps.append(reg.snapshot())
        a, b = MetricsRegistry(), MetricsRegistry()
        for s in snaps:
            a.merge_snapshot(s)
        for s in snaps:
            b.merge_snapshot(s)
        assert a.snapshot() == b.snapshot()


class TestBusAbsorb:
    def test_absorb_resequences_but_preserves_payload(self):
        worker = EventBus()
        recorded = []
        worker.subscribe(recorded.append)
        worker.emit("net.send", t_ms=1.0, node=3, dst=4, kind="sac.share",
                    span="3>4:sac.share#0", trace="t")
        worker.emit("net.deliver", t_ms=16.0, node=3, dst=4,
                    kind="sac.share", span="3>4:sac.share#0")

        parent = EventBus()
        parent.emit("round.start", t_ms=0.0)  # takes seq 0
        absorbed = [parent.absorb(e) for e in recorded]
        assert [e.seq for e in absorbed] == [1, 2]
        for orig, copy in zip(recorded, absorbed):
            assert copy.name == orig.name
            assert copy.t_ms == orig.t_ms
            assert copy.node == orig.node
            assert copy.fields == orig.fields  # span ids survive the hop


class TestProcessParity:
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=5, deadline=None)
    def test_process_bit_identical_across_seeds(self, seed):
        r_off, o_off = _run("off", seed)
        r_proc, o_proc = _run("process", seed)
        assert r_proc.outcome.ok == r_off.outcome.ok
        assert np.array_equal(r_proc.average, r_off.average)
        assert r_proc.finish_time_ms == r_off.finish_time_ms
        assert _event_set(o_proc) == _event_set(o_off)
        assert _sim_metrics(o_proc) == _sim_metrics(o_off)

    def test_threads_and_process_streams_identical(self):
        _, o_thr = _run("threads", 11)
        _, o_proc = _run("process", 11)
        assert _event_set(o_thr) == _event_set(o_proc)
        assert _sim_metrics(o_thr) == _sim_metrics(o_proc)

    def test_trace_span_counters_survive_the_merge(self):
        _, o_off = _run("off", 4)
        _, o_proc = _run("process", 4)
        off = o_off.metrics.snapshot()["trace_spans_total"]
        proc = o_proc.metrics.snapshot()["trace_spans_total"]
        assert off == proc
        assert sum(off["children"].values()) \
            == len(o_off.events_named("net.send"))
