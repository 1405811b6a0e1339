"""Exporters: JSONL event log, Chrome ``trace_event`` JSON, Prometheus text.

Three artifact formats cover the three consumption modes:

- **JSONL** — one event per line, greppable and loadable with any tool;
  the machine-readable ground truth of a run, read back into events by
  :func:`read_events_jsonl` (``python -m repro explain``).
- **Chrome trace JSON** — the ``trace_event`` format understood by
  ``about://tracing`` and https://ui.perfetto.dev: span events become
  duration slices (``ph: "X"``), instants become instant events
  (``ph: "i"``), and each event category gets its own process track with
  one thread row per node, so a two-layer round renders as a timeline.
- **Prometheus text** — rendered by
  :meth:`repro.obs.metrics.MetricsRegistry.render_prometheus`; this
  module only adds the file-writing convenience.

The virtual simulation clock is the primary time base: events that carry
``t_ms`` are placed at that timestamp, and events from purely functional
code (no simulator) fall back to their wall-clock offset from the first
event of the run.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Sequence

from .bus import Event


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)


class EventCollector:
    """In-memory sink; subscribe it to a bus, then write artifacts."""

    def __init__(self) -> None:
        self.events: list[Event] = []

    def __call__(self, event: Event) -> None:
        self.events.append(event)

    def clear(self) -> None:
        self.events.clear()


def _json_default(obj: object) -> object:
    # numpy scalars, sets, and other non-JSON types degrade to strings.
    try:
        import numpy as np

        if isinstance(obj, np.generic):
            return obj.item()
    except ImportError:  # pragma: no cover - numpy is a hard dep
        pass
    if isinstance(obj, (set, frozenset, tuple)):
        return sorted(obj) if isinstance(obj, (set, frozenset)) else list(obj)
    return str(obj)


def write_events_jsonl(path: str, events: Iterable[Event]) -> str:
    """One JSON object per line, in emission (seq) order."""
    _ensure_parent(path)
    with open(path, "w") as fh:
        for event in events:
            fh.write(json.dumps(event.to_dict(), default=_json_default))
            fh.write("\n")
    return path


#: the :class:`Event` slots :meth:`Event.to_dict` writes as top-level keys;
#: every other key of a JSONL record is one of the event's fields.
_SLOTS = ("seq", "name", "t_ms", "wall_s", "node", "dur_ms")


def read_events_jsonl(path: str) -> list[Event]:
    """The inverse of :func:`write_events_jsonl`: one event per line.

    A line that is not a JSON event record raises ``ValueError`` naming
    the file and the line number (a log cut off mid-write ends in one).
    """
    events = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: not a JSON event ({exc.msg})") from None
            if not isinstance(record, dict) or not {"seq", "name"} <= record.keys():
                raise ValueError(f"{path}:{lineno}: not an event record")
            slots = {key: record.pop(key, None) for key in _SLOTS}
            events.append(Event(**slots, fields=record))
    return events


#: span-carrying net events that anchor Chrome flow arrows: a message's
#: send starts the flow (``ph: "s"``), each retransmission is a step
#: (``"t"``), and the delivery terminates it (``"f"``).
_FLOW_PHASES = {"net.send": "s", "net.retransmit": "t", "net.deliver": "f"}


def to_chrome_trace(events: Sequence[Event]) -> dict:
    """Convert events to a Chrome ``trace_event`` JSON object.

    Mapping: category -> pid (one "process" per subsystem), node -> tid
    (one "thread" row per node; node-less events land on tid 0).
    Timestamps are microseconds as the format requires.

    Determinism: pids are assigned from the *sorted* category set and
    the output is sorted by timestamp (ties on bus ``seq``), so the
    same event multiset always serializes to the same document and
    large traces load deterministically in Perfetto.

    Causal tracing (``observe(causal=True)``) adds flow events: every
    span-carrying ``net.send``/``net.retransmit``/``net.deliver``
    yields an extra ``ph: "s"/"t"/"f"`` record with ``id`` set to the
    span id, so Perfetto draws an arrow from each send to its delivery.
    """
    wall0 = min((e.wall_s for e in events), default=0.0)
    categories = sorted({e.category for e in events})
    pids = {cat: i for i, cat in enumerate(categories, start=1)}
    meta = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": cat},
        }
        for cat, pid in pids.items()
    ]

    # (ts_us, seq, suborder, record): flow records sort right after the
    # event that anchors them.
    keyed: list[tuple[float, int, int, dict]] = []
    for event in events:
        if event.t_ms is not None:
            ts_us = event.t_ms * 1e3
        else:
            ts_us = (event.wall_s - wall0) * 1e6
        pid = pids[event.category]
        tid = event.node if event.node is not None else 0
        record = {
            "name": event.name,
            "cat": event.category,
            "pid": pid,
            "tid": tid,
            "ts": round(ts_us, 3),
            "args": {
                k: v for k, v in event.to_dict().items()
                if k not in ("seq", "name", "t_ms", "wall_s", "node", "dur_ms")
            },
        }
        if event.dur_ms is not None:
            record["ph"] = "X"
            record["dur"] = round(event.dur_ms * 1e3, 3)
        else:
            record["ph"] = "i"
            record["s"] = "t"
        keyed.append((ts_us, event.seq, 0, record))

        span = event.fields.get("span")
        flow_ph = _FLOW_PHASES.get(event.name)
        if span is not None and flow_ph is not None:
            flow = {
                # Same name + cat for every phase of one flow id — the
                # trace_event binding rule; the message kind is the one
                # constant across send/retransmit/deliver.
                "name": str(event.fields.get("kind", "msg")),
                "cat": event.category,
                "pid": pid,
                "tid": tid,
                "ts": round(ts_us, 3),
                "ph": flow_ph,
                "id": str(span),
                "args": {},
            }
            if flow_ph == "f":
                flow["bp"] = "e"  # bind to the enclosing slice's end
            keyed.append((ts_us, event.seq, 1, flow))

    keyed.sort(key=lambda item: item[:3])
    return {
        "traceEvents": meta + [rec for *_key, rec in keyed],
        "displayTimeUnit": "ms",
    }


def write_chrome_trace(path: str, events: Sequence[Event]) -> str:
    _ensure_parent(path)
    with open(path, "w") as fh:
        json.dump(to_chrome_trace(events), fh, default=_json_default)
    return path


def write_text(path: str, text: str) -> str:
    _ensure_parent(path)
    with open(path, "w") as fh:
        fh.write(text)
    return path
