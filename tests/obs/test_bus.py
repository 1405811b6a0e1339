"""Event bus: subscription, ordering, and the observe() switchboard."""

import pytest

from repro.obs import (
    Event,
    EventBus,
    EventCollector,
    Observability,
    to_prometheus,
)
from repro.obs import runtime as obs_runtime
from repro.simnet import Simulator


def test_emit_returns_typed_event_with_monotonic_seq():
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    e1 = bus.emit("a.one", t_ms=1.0, node=3, extra="x")
    e2 = bus.emit("a.two")
    assert [e1, e2] == seen
    assert e1.seq < e2.seq
    assert e1.category == "a"
    assert e1.fields == {"extra": "x"}
    assert e1.to_dict()["extra"] == "x"
    assert e1.to_dict()["node"] == 3


def test_unsubscribe_stops_delivery():
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    bus.emit("x")
    bus.unsubscribe(seen.append)
    bus.emit("y")
    assert [e.name for e in seen] == ["x"]


def test_event_order_matches_simulated_time():
    """Callbacks firing at increasing sim times emit in seq order."""
    sim = Simulator()
    obs = Observability()
    times = [30.0, 10.0, 20.0]  # scheduled out of order
    for t in times:
        sim.schedule(t, lambda t=t: obs.emit("tick", t_ms=sim.now, when=t))
    sim.run()
    events = obs.events
    assert [e.t_ms for e in events] == [10.0, 20.0, 30.0]
    assert [e.seq for e in events] == sorted(e.seq for e in events)


def test_observe_installs_and_restores_global():
    before = obs_runtime.get()
    assert not before.enabled
    with obs_runtime.observe() as obs:
        assert obs_runtime.get() is obs
        assert obs.enabled
        obs.emit("inside")
    assert obs_runtime.get() is before
    assert [e.name for e in obs.events] == ["inside"]


def test_disabled_observability_is_inert():
    obs = Observability(enabled=False)
    assert obs.emit("nope") is None
    span = obs.span("nope")
    with span:
        pass
    assert obs.events == []


def test_events_named_prefix_filter():
    obs = Observability()
    obs.emit("raft.election.win")
    obs.emit("raft.vote")
    obs.emit("net.drop")
    assert len(obs.events_named("raft.")) == 2
    assert len(obs.events_named("net.drop")) == 1


def test_span_virtual_clock(tmp_path):
    sim = Simulator()
    obs = Observability()
    sim.schedule(40.0, lambda: None)
    with obs.span("phase.x", clock=lambda: sim.now, tag=1):
        sim.run()
    (event,) = obs.events
    assert event.name == "phase.x"
    assert event.t_ms == 0.0
    assert event.dur_ms == pytest.approx(40.0)
    assert "wall_ms" in event.fields
    assert 'span_duration_ms_count{span="phase.x"} 1\n' in to_prometheus(
        obs.events)


def test_event_approx_bytes_scale_with_payload():
    small = Event(seq=0, name="a", t_ms=0.0, wall_s=0.0, node=None,
                  fields={})
    big = Event(seq=1, name="a", t_ms=0.0, wall_s=0.0, node=None,
                fields={"blob": "x" * 1000})
    assert big.approx_bytes() > small.approx_bytes() + 1000 - 1
