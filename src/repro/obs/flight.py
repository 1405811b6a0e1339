"""Flight recorder: dumps the events leading up to an incident.

When something goes wrong, the events *leading up to it* are what a
post-mortem needs.  :class:`FlightRecorder` subscribes to the bus after
the pipeline's collector, so a trigger event is already the collected
list's last; the list's last :data:`DEFAULT_CAPACITY` events are the
incident's window, dumped as an incident directory:

- ``events.jsonl`` — the window (the last-N events, trigger included);
- ``metrics.prom`` — :func:`~repro.obs.export.to_prometheus` of the
  window, i.e. the reduction of the incident's own ``events.jsonl``;
- ``manifest.json`` — trigger event, virtual time, counts, the causal
  critical path reconstructed from the window's span-carrying events
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
hands the recorder the pipeline's collected list (the CLI's
``--incident-dir``), and read an incident back with
``python -m repro explain <incident dir>``.
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Optional, Tuple

from .bus import Event
from .export import (_json_default, to_prometheus, write_events_jsonl,
                     write_text)

__all__ = ["FlightRecorder", "DEFAULT_TRIGGERS"]

#: event names that trigger an incident dump unconditionally.
DEFAULT_TRIGGERS: Tuple[str, ...] = (
    "chaos.safety_violation",
    "net.retransmit_exhausted",
    "campaign.invariant_violation",
)

#: events in an incident's window.
DEFAULT_CAPACITY = 512
#: default ceiling on dumps per recorder (a chaotic campaign must not
#: fill the disk; suppressed incidents are counted in the manifest).
DEFAULT_MAX_INCIDENTS = 16


class FlightRecorder:
    """Incident dumping over the tail of a collected event list."""

    def __init__(
        self,
        events: list,
        out_dir: str = "incident_out",
        resources: Optional[Callable[[], dict]] = None,
    ) -> None:
        #: the pipeline's collected events, which the window slices.
        self.events = events
        self.out_dir = out_dir
        #: optional provider of a resource snapshot for the manifest
        #: (``attach_flight`` wires :func:`repro.obs.scale.resource_snapshot`).
        self.resources = resources
        #: incident directories written, in order.
        self.incidents: list = []
        self.suppressed = 0

    def __call__(self, event: Event) -> None:
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
        """Dump the window + snapshots into a fresh incident directory."""
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

        events = self.events[-DEFAULT_CAPACITY:]
        write_events_jsonl(os.path.join(inc_dir, "events.jsonl"), events)
        write_text(os.path.join(inc_dir, "metrics.prom"),
                   to_prometheus(events))
        manifest = {
            "trigger": event.to_dict(),
            "ring_capacity": DEFAULT_CAPACITY,
            "ring_events": len(events),
            "events_seen": len(self.events),
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
        return inc_dir

    @staticmethod
    def _critical_path(events: list) -> Optional[dict]:
        """Causal critical path over the window's span-carrying events.

        The path covers the incident's lead-up, not necessarily the
        whole round; ``None`` when tracing was off (no span fields in
        the window).
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
