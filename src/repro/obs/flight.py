"""Flight recorder: a bounded event ring that dumps on incidents.

A long chaos campaign cannot keep every event of every round, but when
something goes wrong the events *leading up to it* are exactly what a
post-mortem needs.  :class:`FlightRecorder` subscribes to the bus,
keeps the last :data:`DEFAULT_CAPACITY` events in a ring, and when a
trigger event arrives dumps an incident directory:

- ``events.jsonl`` — the ring (the last-N events, trigger included);
- ``metrics.prom`` — the Prometheus snapshot at dump time;
- ``manifest.json`` — trigger event, virtual time, counts, the causal
  critical path reconstructed from the ring's span-carrying events
  (when tracing was on), and a resource snapshot of the incident
  window (when a provider is attached).

Disk usage is bounded by :data:`DEFAULT_MAX_INCIDENTS` dumps per
recorder; later incidents are counted as suppressed.

Triggers (all typed failures, never the happy path):

- ``chaos.safety_violation`` — the chaos runner's aggregate-integrity
  invariant failed (the one outcome that must never happen);
- ``round.complete`` with ``completed=False`` — a typed round failure;
- ``net.retransmit_exhausted`` — the reliable transport gave up on a
  frame.

Attach via :meth:`repro.obs.runtime.Observability.attach_flight`, which
fills ``metrics`` from the pipeline (the CLI's ``--incident-dir``), and
read an incident back with ``python -m repro explain <incident dir>``.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from typing import Callable, Deque, Optional, Tuple

from .bus import Event, EventBus
from .export import _json_default, write_events_jsonl
from .metrics import MetricsRegistry

__all__ = ["FlightRecorder", "DEFAULT_TRIGGERS"]

#: event names that trigger an incident dump unconditionally.
DEFAULT_TRIGGERS: Tuple[str, ...] = (
    "chaos.safety_violation",
    "net.retransmit_exhausted",
    "campaign.invariant_violation",
)

#: default ring capacity (events).
DEFAULT_CAPACITY = 512
#: default ceiling on dumps per recorder (a chaotic campaign must not
#: fill the disk; suppressed incidents are counted in the manifest).
DEFAULT_MAX_INCIDENTS = 16


class FlightRecorder:
    """Bounded ring of recent events + incident dumping."""

    def __init__(
        self,
        out_dir: str = "incident_out",
        metrics: Optional[MetricsRegistry] = None,
        resources: Optional[Callable[[], dict]] = None,
    ) -> None:
        self.out_dir = out_dir
        self.metrics = metrics
        #: optional provider of a resource snapshot for the manifest
        #: (``attach_flight`` wires :func:`repro.obs.scale.resource_snapshot`).
        self.resources = resources
        self.ring: Deque[Event] = deque(maxlen=DEFAULT_CAPACITY)
        self.events_seen = 0
        #: incident directories written, in order.
        self.incidents: list = []
        self.suppressed = 0

    # ----------------------------------------------------------- subscription
    def attach(self, bus: EventBus) -> "FlightRecorder":
        bus.subscribe(self)
        return self

    def detach(self, bus: EventBus) -> None:
        bus.unsubscribe(self)

    def __call__(self, event: Event) -> None:
        self.events_seen += 1
        self.ring.append(event)
        if self._is_trigger(event):
            self.record_incident(event)

    def _is_trigger(self, event: Event) -> bool:
        if event.name in DEFAULT_TRIGGERS:
            return True
        # A typed round failure: the round ended without completing.
        return (
            event.name == "round.complete"
            and event.fields.get("completed") is False
        )

    # ------------------------------------------------------------------ dumps
    def record_incident(self, event: Event) -> Optional[str]:
        """Dump the ring + snapshots into a fresh incident directory."""
        if len(self.incidents) >= DEFAULT_MAX_INCIDENTS:
            self.suppressed += 1
            return None
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        trigger_slug = event.name.replace(".", "_")
        inc_dir = os.path.join(
            self.out_dir,
            f"{stamp}-{len(self.incidents):03d}-{trigger_slug}",
        )
        os.makedirs(inc_dir, exist_ok=True)

        events = list(self.ring)
        write_events_jsonl(os.path.join(inc_dir, "events.jsonl"), events)
        if self.metrics is not None:
            with open(os.path.join(inc_dir, "metrics.prom"), "w") as fh:
                fh.write(self.metrics.render_prometheus())
        manifest = {
            "trigger": event.to_dict(),
            "ring_capacity": DEFAULT_CAPACITY,
            "ring_events": len(events),
            "events_seen": self.events_seen,
            "incident_index": len(self.incidents),
            "suppressed_so_far": self.suppressed,
            "created_wall_s": time.time(),
        }
        path = self._critical_path(events)
        if path is not None:
            manifest["critical_path"] = path
        if self.resources is not None:
            manifest["resources"] = self.resources()
        with open(os.path.join(inc_dir, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, default=_json_default, indent=2)

        self.incidents.append(inc_dir)
        if self.metrics is not None:
            self.metrics.counter(
                "flight_incidents_total",
                "Flight-recorder incident dumps by trigger event.",
                labels=("trigger",),
            ).labels(trigger=event.name).inc()
        return inc_dir

    @staticmethod
    def _critical_path(events: list) -> Optional[dict]:
        """Causal critical path over the ring's span-carrying events.

        The ring is a *window*, so the reconstructed path covers the
        incident's lead-up, not necessarily the whole round; ``None``
        when tracing was off (no span fields in the window).
        """
        from .causal import critical_path  # lazy: avoid import cycles

        path = critical_path(events)
        if path is None:
            return None
        return {
            "trace_id": path.trace_id,
            "latency_ms": path.latency_ms,
            "start_ms": path.start_ms,
            "end_ms": path.end_ms,
            "hops": [
                {
                    "span": hop.span_id,
                    "kind": hop.kind,
                    "src": hop.src,
                    "dst": hop.dst,
                    "send_ms": hop.send_ms,
                    "deliver_ms": hop.deliver_ms,
                    "retransmits": hop.retransmits,
                }
                for hop in path.hops
            ],
        }
