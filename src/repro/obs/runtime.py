"""Process-global observability switchboard.

Instrumented hot paths cannot thread an observability handle through
every constructor (RaftNode, SacProtocolPeer, and the nn layers are
created deep inside scenario builders), so the active
:class:`Observability` lives here as a module global.  The contract for
instrumentation sites is::

    from ..obs import runtime as _obs
    ...
    obs = _obs.OBS
    if obs.enabled:
        obs.emit("raft.election.start", t_ms=now, node=nid, term=term)

When nothing is installed, ``OBS`` is a disabled instance and the whole
emission costs one module-attribute read and one bool check — that is
the "zero overhead when disabled" guarantee the tier-1 timings rely on
(``tests/obs/test_disabled_path.py`` pins that a default run emits no
event and allocates no trace context).

Use :func:`observe` as a context manager to install a fresh pipeline
for a scenario and write its artifacts afterwards::

    with observe() as obs:
        run_two_layer_wire_round(...)
    obs.write_events_jsonl("events.jsonl")
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Iterator, Optional

from .bus import Event, EventBus
from .export import (
    EventCollector,
    to_prometheus,
    write_chrome_trace,
    write_events_jsonl,
    write_text,
)
from .spans import NULL_SPAN, NullSpan, Span


class Observability:
    """One observability pipeline: an event bus and its collected events.

    ``enabled=False`` builds an inert instance whose ``emit``/``span``
    are no-ops; instrumentation sites additionally guard on ``enabled``
    so the disabled path does no argument packing at all.  An enabled
    pipeline keeps every event in an
    :class:`~repro.obs.export.EventCollector`: that list is the run's
    one record, and every artifact (JSONL, Chrome trace, Prometheus
    text, a flight-recorder window) is written from it.
    """

    def __init__(self, enabled: bool = True, causal: bool = False) -> None:
        self.enabled = enabled
        #: opt-in causal tracing: when True (``observe(causal=True)``),
        #: ``Network.send`` allocates a TraceContext per message and
        #: emits span-carrying ``net.send`` events.  Off by default so
        #: the baseline event stream (and every seed-exact sim pin)
        #: is unchanged.
        self.causal = bool(causal)
        self.bus = EventBus()
        self.collector: Optional[EventCollector] = None
        #: the flight recorder, once :meth:`attach_flight` ran.
        self.flight = None
        if enabled:
            self.collector = EventCollector()
            self.bus.subscribe(self.collector)

    # ---------------------------------------------------------------- emission
    def emit(
        self,
        name: str,
        *,
        t_ms: float | None = None,
        node: int | None = None,
        dur_ms: float | None = None,
        **fields: Any,
    ) -> Optional[Event]:
        if not self.enabled:
            return None
        return self.bus.emit(name, t_ms=t_ms, node=node, dur_ms=dur_ms, **fields)

    def span(
        self,
        name: str,
        clock: Optional[Callable[[], float]] = None,
        node: int | None = None,
        **fields: Any,
    ) -> "Span | NullSpan":
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, clock=clock, node=node, **fields)

    # ---------------------------------------------------------------- exports
    @property
    def events(self) -> list[Event]:
        return self.collector.events if self.collector is not None else []

    def events_named(self, prefix: str) -> list[Event]:
        """Collected events whose name starts with ``prefix``."""
        return [e for e in self.events if e.name.startswith(prefix)]

    def write_events_jsonl(self, path: str) -> str:
        return write_events_jsonl(path, self.events)

    def write_chrome_trace(self, path: str) -> str:
        return write_chrome_trace(path, self.events)

    def write_prometheus(self, path: str) -> str:
        return write_text(path, to_prometheus(self.events))

    # ------------------------------------------------------- attached sinks
    def attach_flight(self, **kwargs: Any):
        """Attach a :class:`~repro.obs.flight.FlightRecorder` to this bus;
        its window is the tail of :attr:`events`."""
        from .flight import FlightRecorder  # lazy: keep import-time cost off
        from .scale import resource_snapshot

        kwargs.setdefault("events", self.events)
        kwargs.setdefault("resources", lambda: resource_snapshot(obs=self))
        self.flight = FlightRecorder(**kwargs)
        self.bus.subscribe(self.flight)
        return self.flight


#: the active pipeline; a disabled instance unless :func:`install` ran.
OBS = Observability(enabled=False)


def get() -> Observability:
    """The currently installed pipeline (disabled singleton by default)."""
    return OBS


def install(obs: Observability) -> Observability:
    """Make ``obs`` the process-global pipeline."""
    global OBS
    OBS = obs
    return obs


def uninstall() -> None:
    """Revert to the disabled pipeline."""
    global OBS
    OBS = Observability(enabled=False)


@contextlib.contextmanager
def observe(
    obs: Observability | None = None, **kwargs: Any
) -> Iterator[Observability]:
    """Install a pipeline for the duration of a ``with`` block."""
    created = obs if obs is not None else Observability(**kwargs)
    previous = OBS
    install(created)
    try:
        yield created
    finally:
        install(previous)
