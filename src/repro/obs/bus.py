"""Typed event bus: the spine of the observability pipeline.

Every instrumented subsystem publishes :class:`Event` records here —
Raft role changes, SAC phase boundaries, network drops, round spans:
structured records with a dotted name, the virtual simulation time, the
wall-clock time, and free-form fields.  Sinks (JSONL, Chrome trace)
subscribe to these.  Per-message byte accounting does not ride the bus:
each :class:`~repro.simnet.network.Network` hands its
:class:`~repro.simnet.trace.MessageRecord` straight to its own
:class:`~repro.simnet.trace.TraceRecorder`.

Events carry a bus-assigned monotonically increasing ``seq`` so that
total order is preserved even when many events share one virtual
timestamp (common in a discrete-event simulation).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(slots=True)
class Event:
    """One observability event.

    ``t_ms`` is virtual simulation time (``None`` for purely functional
    code that runs outside any simulator); ``wall_s`` is the wall clock.
    ``dur_ms`` is set for span-style events and makes the event render
    as a duration slice in the Chrome trace exporter.
    """

    seq: int
    name: str
    t_ms: float | None
    wall_s: float
    node: int | None = None
    dur_ms: float | None = None
    fields: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """Flat JSON-serializable form (used by the JSONL sink)."""
        out: dict[str, Any] = {
            "seq": self.seq,
            "name": self.name,
            "t_ms": self.t_ms,
            "wall_s": self.wall_s,
        }
        if self.node is not None:
            out["node"] = self.node
        if self.dur_ms is not None:
            out["dur_ms"] = self.dur_ms
        for k, v in self.fields.items():
            out.setdefault(k, v)
        return out

    @property
    def category(self) -> str:
        """Leading component of the dotted name (``raft``, ``sac``, ...)."""
        return self.name.split(".", 1)[0]

    def approx_bytes(self) -> int:
        """Rough retained size: fixed slots + per-field estimate.

        Used by the obs self-accounting in :mod:`repro.obs.scale`; a
        cheap deterministic bound, not ``sys.getsizeof`` recursion.
        """
        n = 96 + len(self.name)
        for k, v in self.fields.items():
            n += 48 + len(k) + (len(v) if isinstance(v, str) else 8)
        return n


class EventBus:
    """Dispatches events to subscribers.

    Subscribers are plain callables; exceptions propagate (a broken sink
    should fail loudly in a reproduction harness, not drop data).
    """

    __slots__ = ("_event_subs", "_seq")

    def __init__(self) -> None:
        self._event_subs: list[Callable[[Event], None]] = []
        self._seq = 0

    def subscribe(self, fn: Callable[[Event], None]) -> Callable[[Event], None]:
        self._event_subs.append(fn)
        return fn

    def unsubscribe(self, fn: Callable[[Event], None]) -> None:
        self._event_subs.remove(fn)

    def emit(
        self,
        name: str,
        *,
        t_ms: float | None = None,
        node: int | None = None,
        dur_ms: float | None = None,
        **fields: Any,
    ) -> Event:
        event = Event(
            seq=self._seq,
            name=name,
            t_ms=t_ms,
            wall_s=time.time(),
            node=node,
            dur_ms=dur_ms,
            fields=fields,
        )
        self._seq += 1
        for fn in self._event_subs:
            fn(event)
        return event
