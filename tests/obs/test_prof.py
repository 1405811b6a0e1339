"""Profiler call-tree math: self vs total on nested/overlapping spans,
the message-plane byte join, and the straggler statistics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.prof import (
    _build_tree,
    _interval_union_ms,
    _SpanInstance,
    profile_events,
)
from repro.obs.runtime import Observability


def _span(obs, name, start, end, **fields):
    obs.emit(name, t_ms=start, dur_ms=end - start, **fields)


def test_nested_spans_self_vs_total():
    obs = Observability()
    _span(obs, "child1", 0.0, 40.0)
    _span(obs, "child2", 40.0, 80.0)
    _span(obs, "parent", 0.0, 100.0)
    report = profile_events(obs.events)

    parent = report.phase("parent")
    assert parent.total_ms == 100.0
    assert parent.self_ms == 20.0  # 100 - (40 + 40)
    assert report.phase("parent", "child1").total_ms == 40.0
    assert report.phase("parent", "child1").self_ms == 40.0
    assert report.phase("parent", "child2").total_ms == 40.0


def test_overlapping_children_counted_once():
    # Two concurrent children [10,60] and [30,80]: their union covers
    # [10,80], so parent self time must be 100 - 70 = 30, not 100 - 100.
    obs = Observability()
    _span(obs, "c1", 10.0, 60.0)
    _span(obs, "c2", 30.0, 80.0)
    _span(obs, "parent", 0.0, 100.0)
    report = profile_events(obs.events)

    assert report.phase("parent").self_ms == pytest.approx(30.0)
    # Partially overlapping spans are siblings, not nested.
    assert report.phase("parent", "c1").count == 1
    assert report.phase("parent", "c2").count == 1


def test_identical_windows_are_siblings_not_nested():
    # Concurrent subgroup rounds genuinely span the same sim window;
    # they must not nest under each other.
    obs = Observability()
    _span(obs, "groupA", 0.0, 50.0)
    _span(obs, "groupB", 0.0, 50.0)
    report = profile_events(obs.events)

    paths = {p.path for p in report.phases}
    assert ("groupA",) in paths
    assert ("groupB",) in paths
    assert ("groupA", "groupB") not in paths
    assert ("groupB", "groupA") not in paths


def test_repeated_spans_aggregate_by_path():
    obs = Observability()
    _span(obs, "round", 0.0, 10.0)
    _span(obs, "round", 20.0, 35.0)
    report = profile_events(obs.events)

    phase = report.phase("round")
    assert phase.count == 2
    assert phase.total_ms == 25.0
    assert phase.self_ms == 25.0


def test_three_level_nesting_and_deep_self_time():
    obs = Observability()
    _span(obs, "leaf", 10.0, 20.0)
    _span(obs, "mid", 5.0, 40.0)
    _span(obs, "root", 0.0, 100.0)
    report = profile_events(obs.events)

    assert report.phase("root", "mid", "leaf").total_ms == 10.0
    assert report.phase("root", "mid").self_ms == 25.0  # 35 - 10
    assert report.phase("root").self_ms == 65.0  # 100 - 35


def test_message_join_attributes_to_deepest_phase():
    obs = Observability()
    obs.emit("net.deliver", t_ms=15.0, node=1, dst=2, kind="sac.share",
             bits=1000.0)
    obs.emit("net.deliver", t_ms=90.0, node=2, dst=1, kind="fed.bcast",
             bits=500.0)
    obs.emit("net.drop", t_ms=16.0, node=3, dst=1, kind="sac.share",
             bits=1000.0, reason="loss")
    _span(obs, "inner", 10.0, 30.0)
    _span(obs, "outer", 0.0, 100.0)
    report = profile_events(obs.events)

    inner = report.phase("outer", "inner")
    assert inner.bits == 1000.0
    assert inner.messages == 1
    assert inner.dropped == 1
    assert inner.bits_by_kind == {"sac.share": 1000.0}
    outer = report.phase("outer")
    assert outer.bits == 500.0
    assert outer.messages == 1
    assert outer.dropped == 0


def test_straggler_gap_is_slowest_vs_median():
    obs = Observability()
    # Nodes 0..3 finish at 10, 12, 14, 50: median 13, slowest node 3.
    for node, t in ((0, 10.0), (1, 12.0), (2, 14.0), (3, 50.0)):
        obs.emit("sac.subtotal_sent", t_ms=t, node=node)
    _span(obs, "round", 0.0, 60.0)
    report = profile_events(obs.events)

    strag = report.phase("round").straggler
    assert strag is not None
    assert strag.nodes == 4
    assert strag.slowest_node == 3
    assert strag.gap_ms == pytest.approx(50.0 - 13.0)
    assert strag.spread_ms == pytest.approx(40.0)


def test_single_node_phase_has_no_straggler_stats():
    obs = Observability()
    obs.emit("sac.subtotal_sent", t_ms=5.0, node=0)
    _span(obs, "round", 0.0, 10.0)
    report = profile_events(obs.events)
    assert report.phase("round").straggler is None


def test_wall_only_spans_aggregate_by_name():
    obs = Observability()
    with obs.span("epoch"):  # no sim clock: wall-only
        pass
    with obs.span("epoch"):
        pass
    report = profile_events(obs.events)

    phase = report.phase("epoch")
    assert not phase.sim_clocked
    assert phase.count == 2
    assert phase.total_ms == 0.0  # no sim clock, no sim time
    assert phase.wall_total_ms >= 0.0


def test_wall_ms_rides_along_on_sim_spans():
    obs = Observability()
    obs.emit("phase", t_ms=0.0, dur_ms=50.0, wall_ms=2.5)
    report = profile_events(obs.events)
    phase = report.phase("phase")
    assert phase.total_ms == 50.0
    assert phase.wall_total_ms == 2.5


def test_format_table_sorts_and_limits():
    obs = Observability()
    _span(obs, "small", 0.0, 10.0)
    _span(obs, "big", 20.0, 120.0)
    report = profile_events(obs.events)

    table = report.format_table()
    lines = table.splitlines()
    assert "phase" in lines[0]
    assert lines[1].lstrip().startswith("big")
    assert len(report.format_table(limit=1).splitlines()) == 2


def test_report_json_round_trip_fields():
    obs = Observability()
    obs.emit("net.deliver", t_ms=5.0, node=0, dst=1, kind="x", bits=8.0)
    _span(obs, "round", 0.0, 10.0)
    doc = profile_events(obs.events).to_json()
    assert doc["events_seen"] == 2
    (phase,) = doc["phases"]
    assert phase["path"] == ["round"]
    assert phase["bits"] == 8.0
    assert phase["messages"] == 1
    assert set(phase) >= {
        "count", "total_ms", "self_ms", "wall_total_ms", "wall_self_ms",
        "bits", "messages", "dropped", "bits_by_kind", "straggler",
        "sim_clocked",
    }


def test_interval_union_merges_overlaps():
    assert _interval_union_ms([]) == 0.0
    assert _interval_union_ms([(0.0, 10.0)]) == 10.0
    assert _interval_union_ms([(0.0, 10.0), (5.0, 20.0)]) == 20.0
    assert _interval_union_ms([(0.0, 10.0), (10.0, 20.0)]) == 20.0
    assert _interval_union_ms([(0.0, 5.0), (10.0, 15.0)]) == 10.0


def test_profiler_on_real_wire_round_is_deterministic():
    import numpy as np

    from repro.core.topology import Topology
    from repro.core.wire_round import run_two_layer_wire_round
    from repro.obs import runtime as rt

    def run():
        topo = Topology.by_group_size(6, 3)
        rng = np.random.default_rng(7)
        models = [rng.normal(size=32) for _ in range(6)]
        with rt.observe() as obs:
            result = run_two_layer_wire_round(topo, models, k=2, seed=7)
        assert result.outcome.ok
        report = profile_events(obs.events)
        # Strip wall fields: only the sim side must be reproducible.
        phases = []
        for p in report.to_json()["phases"]:
            p = dict(p)
            p.pop("wall_total_ms")
            p.pop("wall_self_ms")
            phases.append(p)
        return phases, result.bits_sent

    first, second = run(), run()
    assert first == second
    phases, bits = first
    by_path = {tuple(p["path"]): p for p in phases}
    round_phase = by_path[("round.two_layer",)]
    sac_phase = by_path[("round.two_layer", "sac.complete")]
    # Every delivered bit lands in exactly one phase of the tree.
    assert round_phase["bits"] + sac_phase["bits"] == bits
    assert sac_phase["straggler"] is not None


def _scanning_joins(events):
    """The joins by full scan, the reference for ``profile_events``: per
    path, (bits, messages, dropped) of the messages whose deepest
    containing span (ties: latest start, lowest seq) has that path, and
    the worst straggler over the path's instances."""
    spans = [_SpanInstance(e.seq, e.name, e.t_ms, e.t_ms + e.dur_ms, None,
                           e.node) for e in events if e.dur_ms is not None]
    _build_tree(spans)
    joins, worst = {}, {}
    for e in events:
        if e.name not in ("net.deliver", "net.drop"):
            continue
        best = None
        for inst in spans:
            if inst.start <= e.t_ms <= inst.end and (
                    best is None
                    or (inst.depth, inst.start, -inst.seq)
                    > (best.depth, best.start, -best.seq)):
                best = inst
        if best is not None:
            bits, msgs, dropped = joins.get(best.path, (0.0, 0, 0))
            if e.name == "net.deliver":
                joins[best.path] = (bits + e.fields["bits"], msgs + 1, dropped)
            else:
                joins[best.path] = (bits, msgs, dropped + 1)
    for inst in spans:
        last = {}
        for e in events:
            if (e.node is not None and inst.start <= e.t_ms <= inst.end
                    and e.t_ms > last.get(e.node, -1.0)):
                last[e.node] = e.t_ms
        if len(last) < 2:
            continue
        times = sorted(last.values())
        n = len(times)
        mid = times[n // 2] if n % 2 else (times[n // 2 - 1] + times[n // 2]) / 2
        slowest = max((t, node) for node, t in last.items())
        stats = (slowest[0] - mid, slowest[0] - times[0], slowest[1], n)
        worst[inst.path] = max(worst.get(inst.path, stats), stats,
                               key=lambda g: g[:2])
    return joins, worst


@settings(max_examples=150, deadline=None)
@given(
    spans=st.lists(st.tuples(st.sampled_from("abc"), st.integers(0, 8),
                             st.integers(0, 6)), min_size=1, max_size=12),
    points=st.lists(st.tuples(
        st.sampled_from(["net.deliver", "net.drop", "tick"]),
        st.integers(0, 28), st.integers(0, 4)), max_size=40),
)
def test_joins_equal_the_scanning_reference(spans, points):
    """Windows on a small lattice: identical, nested, overlapping and
    disjoint spans, messages and activity on their edges."""
    obs = Observability()
    for name, start, length in spans:
        _span(obs, name, float(start), float(start + length))
    for name, half_ms, node in points:
        obs.emit(name, t_ms=half_ms / 2, node=node, kind="k", bits=8.0)
    joins, worst = _scanning_joins(obs.events)
    for phase in profile_events(obs.events).phases:
        assert (phase.bits, phase.messages, phase.dropped) == joins.get(
            phase.path, (0.0, 0, 0))
        strag = phase.straggler
        assert worst.get(phase.path) == (strag and (
            strag.gap_ms, strag.spread_ms, strag.slowest_node, strag.nodes))


class TestResourceProfiler:
    def test_phases_record_alloc_deltas(self):
        import numpy as np

        from repro.obs.scale import ResourceProfiler

        with ResourceProfiler() as rp:
            with rp.phase("allocate"):
                blob = np.zeros(1_000_000)  # ~8 MB
            del blob  # per-phase peak tracks *live* traced memory
            with rp.phase("idle"):
                pass
        names = [name for name, _ in rp.phases]
        assert names == ["allocate", "idle"]
        alloc = dict(rp.phases)["allocate"]
        assert alloc["alloc_peak_bytes"] >= 8_000_000
        assert alloc["alloc_delta_bytes"] >= 8_000_000
        idle = dict(rp.phases)["idle"]
        assert idle["alloc_peak_bytes"] < 8_000_000

    def test_close_stops_only_own_tracing(self):
        import tracemalloc

        from repro.obs.scale import ResourceProfiler

        assert not tracemalloc.is_tracing()
        rp = ResourceProfiler()
        with rp.phase("p"):
            pass
        assert tracemalloc.is_tracing()
        rp.close()
        assert not tracemalloc.is_tracing()
        # If someone else started tracing, close() must leave it alone.
        tracemalloc.start()
        try:
            rp2 = ResourceProfiler()
            with rp2.phase("q"):
                pass
            rp2.close()
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()

    def test_json_and_table_rendering(self):
        from repro.obs.scale import ResourceProfiler

        with ResourceProfiler() as rp:
            with rp.phase("only"):
                pass
        doc = rp.to_json()
        assert doc["phases"][0]["name"] == "only"
        table = rp.format_table()
        assert "resource profile" in table
        assert "only" in table


class TestResourceSnapshot:
    def _round(self):
        import numpy as np

        from repro.core.topology import Topology
        from repro.core.wire_round import run_two_layer_wire_round

        topo = Topology.by_group_size(6, 3)
        rng = np.random.default_rng(0)
        models = [rng.normal(size=16) for _ in range(topo.n_peers)]
        run_two_layer_wire_round(topo, models, k=2, seed=0)

    def test_self_accounting_sums_events(self):
        from repro.obs import runtime as _runtime
        from repro.obs.scale import obs_self_accounting

        with _runtime.observe() as obs:
            self._round()
        acct = obs_self_accounting(obs)
        assert set(acct) == {"events_held", "event_bytes", "telemetry_bytes"}
        assert acct["events_held"] == len(obs.events) > 0
        assert acct["event_bytes"] == acct["telemetry_bytes"] == sum(
            e.approx_bytes() for e in obs.events)

    def test_resource_snapshot_sections(self):
        import numpy as np

        from repro.obs import runtime as _runtime
        from repro.obs.scale import format_resource_report, resource_snapshot
        from repro.simnet.events import Simulator
        from repro.simnet.network import FixedLatency, Network

        sim = Simulator()
        network = Network(sim, latency=FixedLatency(5.0),
                          rng=np.random.default_rng(0))
        with _runtime.observe() as obs:
            obs.emit("tick", t_ms=0.0)
            snap = resource_snapshot(obs=obs, sim=sim, network=network)
        assert snap["peak_rss_bytes"] is None or snap["peak_rss_bytes"] > 0
        assert snap["sim_heap"]["pending"] == 0
        assert snap["messages"] == {"in_flight": 0, "peak_in_flight": 0}
        assert snap["obs"]["events_held"] == 1
        report = format_resource_report(snap)
        assert "peak RSS" in report
        assert "telemetry total" in report
        assert "rollup" not in report
