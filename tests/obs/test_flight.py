"""Flight recorder: an incident's window is the tail of the collected
events, typed failures and safety violations dump incident directories
with the events leading up to them (and their metrics reduced from
those events), and the dump ceiling suppresses rather than filling the
disk."""

import json
import os

import numpy as np

from repro.chaos import Crash, FaultSchedule
from repro.core.topology import Topology
from repro.core.wire_round import run_two_layer_wire_round
from repro.obs import read_events_jsonl, to_prometheus
from repro.obs import runtime as _runtime
from repro.obs.flight import DEFAULT_CAPACITY, DEFAULT_MAX_INCIDENTS, FlightRecorder


def _read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


class TestRing:
    def test_ring_is_bounded(self, tmp_path):
        # The dumped window is the collected list's tail, trigger last.
        with _runtime.observe() as obs:
            rec = FlightRecorder(obs.events, out_dir=str(tmp_path))
            obs.bus.subscribe(rec)
            n = DEFAULT_CAPACITY + 100
            for i in range(n):
                obs.emit("tick", t_ms=float(i), node=0)
            assert not rec.incidents  # nothing triggered
            obs.emit("chaos.safety_violation", t_ms=None, detail="x")
        assert len(obs.events) == n + 1
        (inc_dir,) = rec.incidents
        window = _read_jsonl(os.path.join(inc_dir, "events.jsonl"))
        assert [e["seq"] for e in window] == [
            e.seq for e in obs.events[-DEFAULT_CAPACITY:]
        ]
        assert window[-1]["name"] == "chaos.safety_violation"

    def test_happy_path_rounds_do_not_trigger(self, tmp_path):
        with _runtime.observe() as obs:
            rec = obs.attach_flight(out_dir=str(tmp_path))
            obs.emit("round.complete", t_ms=75.0, completed=True)
        assert not rec.incidents


class TestIncidents:
    def test_safety_violation_dumps_last_n_events(self, tmp_path):
        with _runtime.observe() as obs:
            rec = obs.attach_flight(out_dir=str(tmp_path))
            for i in range(DEFAULT_CAPACITY + 40):
                obs.emit("tick", t_ms=float(i), node=0)
            obs.emit("chaos.safety_violation", t_ms=None,
                     outcome="completed", detail="aggregate mismatch")
        (inc_dir,) = rec.incidents
        events = _read_jsonl(os.path.join(inc_dir, "events.jsonl"))
        assert len(events) == DEFAULT_CAPACITY
        assert events[-1]["name"] == "chaos.safety_violation"
        assert events[-1]["detail"] == "aggregate mismatch"
        manifest = json.load(open(os.path.join(inc_dir, "manifest.json")))
        assert manifest["trigger"]["name"] == "chaos.safety_violation"
        assert manifest["ring_capacity"] == DEFAULT_CAPACITY
        assert manifest["events_seen"] == DEFAULT_CAPACITY + 41

    def test_retransmit_exhaustion_triggers(self, tmp_path):
        with _runtime.observe() as obs:
            rec = obs.attach_flight(out_dir=str(tmp_path))
            obs.emit("net.retransmit_exhausted", t_ms=50.0, node=2, dst=3)
        assert len(rec.incidents) == 1

    def test_max_incidents_suppresses(self, tmp_path):
        with _runtime.observe() as obs:
            rec = obs.attach_flight(out_dir=str(tmp_path))
            for i in range(DEFAULT_MAX_INCIDENTS + 1):
                obs.emit("chaos.safety_violation", t_ms=None, detail=str(i))
        assert len(rec.incidents) == DEFAULT_MAX_INCIDENTS
        assert rec.suppressed == 1

    def test_manifest_carries_resource_snapshot(self, tmp_path):
        # attach_flight wires resource_snapshot(obs=...) as the default
        # provider, so every manifest records what the pipeline held.
        with _runtime.observe() as obs:
            rec = obs.attach_flight(out_dir=str(tmp_path))
            for i in range(10):
                obs.emit("tick", t_ms=float(i))
            obs.emit("chaos.safety_violation", t_ms=None, detail="x")
        (inc_dir,) = rec.incidents
        manifest = json.load(open(os.path.join(inc_dir, "manifest.json")))
        res = manifest["resources"]
        assert res["obs"]["events_held"] >= 10

    def test_manifest_critical_path_when_tracing(self, tmp_path):
        # With causal tracing on, the manifest reconstructs the causal
        # critical path over the window; without it there is none.
        from repro.core.topology import Topology

        topo = Topology.by_group_size(6, 3)
        rng = np.random.default_rng(0)
        models = [rng.normal(size=16) for _ in range(6)]
        victim = next(p for p in range(6) if p not in topo.leaders)
        schedule = FaultSchedule([Crash(10.0, victim)])
        with _runtime.observe(causal=True) as obs:
            rec = obs.attach_flight(out_dir=str(tmp_path / "traced"))
            result = run_two_layer_wire_round(
                topo, models, k=3, seed=0, schedule=schedule,
                trace_id="doomed:s0",
            )
        assert not result.outcome.ok
        (inc_dir,) = rec.incidents
        manifest = json.load(open(os.path.join(inc_dir, "manifest.json")))
        path = manifest["critical_path"]
        assert path["trace_id"] == "doomed:s0"
        assert path["hops"]
        assert path["latency_ms"] == path["end_ms"] - path["start_ms"]
        with _runtime.observe() as obs2:
            rec2 = obs2.attach_flight(out_dir=str(tmp_path / "untraced"))
            obs2.emit("chaos.safety_violation", t_ms=None, detail="x")
        (inc2,) = rec2.incidents
        manifest2 = json.load(open(os.path.join(inc2, "manifest.json")))
        assert "critical_path" not in manifest2


class TestEndToEnd:
    def test_unrecoverable_round_leaves_an_incident(self, tmp_path):
        # k == group size: any crash makes the subgroup unrecoverable,
        # so the round fails typed and the recorder dumps.
        topo = Topology.by_group_size(6, 3)
        victim = next(p for p in range(6) if p not in topo.leaders)
        schedule = FaultSchedule([Crash(10.0, victim)])
        rng = np.random.default_rng(0)
        models = [rng.normal(size=16) for _ in range(6)]
        with _runtime.observe(causal=True) as obs:
            rec = obs.attach_flight(out_dir=str(tmp_path))
            result = run_two_layer_wire_round(
                topo, models, k=3, seed=0, schedule=schedule,
            )
        assert not result.outcome.ok
        (inc_dir,) = rec.incidents
        events = _read_jsonl(os.path.join(inc_dir, "events.jsonl"))
        trigger = events[-1]
        assert trigger["name"] == "round.complete"
        assert trigger["completed"] is False
        # The window holds the causal context: the crash that caused it.
        assert any(e["name"] == "net.crash" for e in events)
        # The incident's metrics are the reduction of its own events.
        with open(os.path.join(inc_dir, "metrics.prom")) as fh:
            metrics = fh.read()
        assert metrics == to_prometheus(
            read_events_jsonl(os.path.join(inc_dir, "events.jsonl")))
        assert "net_crashes_total 1\n" in metrics
