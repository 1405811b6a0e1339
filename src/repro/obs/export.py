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
- **Prometheus text** — :func:`to_prometheus` reduces the same event
  list to counters, gauges and summaries, so a run's metrics are a
  function of its event log (``to_prometheus(read_events_jsonl(p))``
  rebuilds the ``metrics.prom`` written beside it).

The virtual simulation clock is the primary time base: events that carry
``t_ms`` are placed at that timestamp, and events from purely functional
code (no simulator) fall back to their wall-clock offset from the first
event of the run.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Sequence

import numpy as np

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


def _json_default(obj: object) -> object:
    # numpy scalars, sets, and other non-JSON types degrade to strings.
    if isinstance(obj, np.generic):
        return obj.item()
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


#: Every metric family and the events it reduces: (family, kind, event
#: name, {label: event key}, value key, help).  Counters sum the value
#: (``count`` is 1 on a per-message event; a wave event's ``count``
#: carries its run), gauges keep the last, summaries observe each one.
#: ``span_duration_ms`` reads every span (:func:`_is_span`), whatever
#: its name.
_FAMILIES = (
    ("trace_spans_total", "counter", "net.send", {"kind": "kind"}, "count",
     "Causal message spans by kind."),
    ("net_messages_total", "counter", "net.deliver", {"kind": "kind"},
     "count", "Delivered messages by kind."),
    ("net_bits_total", "counter", "net.deliver", {"kind": "kind"}, "bits",
     "Delivered bits by kind."),
    ("net_dropped_total", "counter", "net.drop",
     {"reason": "reason", "kind": "kind"}, "count",
     "Dropped messages by reason and kind."),
    ("net_retransmits_total", "counter", "net.retransmit", {"kind": "kind"},
     "count", "Data-frame retransmissions by kind."),
    ("net_retransmit_exhausted_total", "counter", "net.retransmit_exhausted",
     {"kind": "kind"}, "count",
     "Frames abandoned after the retransmit budget."),
    ("net_crashes_total", "counter", "net.crash", {}, "count",
     "Crash injections."),
    ("raft_elections_total", "counter", "raft.election.start",
     {"cluster": "cluster"}, "count", "Elections started."),
    ("raft_term", "gauge", "raft.election.win",
     {"cluster": "cluster", "node": "node"}, "term", "Current term."),
    ("sac_recoveries_total", "counter", "sac.recover.request", {}, "count",
     "Share-recovery fetches issued by SAC leaders."),
    ("sac_round_ms", "summary", "sac.complete", {"group": "group"}, "dur_ms",
     "Virtual-time duration of SAC rounds, share-out to average."),
    ("subgroup_sac_complete_ms", "summary", "round.subgroup_done",
     {"group": "group"}, "t_ms",
     "Virtual time at which each subgroup's SAC average lands."),
    ("agg_group_failures_total", "counter", "agg.group_failed",
     {"reason": "reason"}, "count",
     "Subgroups excluded from an aggregation round."),
    ("campaign_reshards_total", "counter", "campaign.reshard", {}, "count",
     "re-sharding plans applied between campaign rounds"),
    ("campaign_round_outcome_total", "counter", "campaign.round",
     {"outcome": "outcome"}, "count", "campaign rounds by outcome status"),
    ("campaign_membership_size", "gauge", "campaign.round", {}, "n_alive",
     "alive stable peers entering the current campaign round"),
    ("campaign_groups", "gauge", "campaign.round", {}, "groups",
     "subgroups in the current campaign topology"),
    ("span_duration_ms", "summary", None, {"span": "name"}, "dur_ms",
     "Phase durations by span name."),
)

#: quantiles included in the Prometheus exposition of a summary.
EXPORT_QUANTILES = (0.5, 0.9, 0.99)


def _is_span(event: Event) -> bool:
    """Whether ``event`` is what a :class:`~repro.obs.spans.Span` emits:
    a duration with its wall time beside a sim clock, or on the wall
    clock alone (``sac.complete`` carries a sim duration, no span)."""
    return event.dur_ms is not None and (
        "wall_ms" in event.fields or event.t_ms is None)


def _value(event: Event, key: str):
    if key in _SLOTS:
        return getattr(event, key)
    return event.fields.get(key, 1 if key == "count" else None)


_ESCAPES = str.maketrans({"\\": r"\\", '"': r"\"", "\n": r"\n"})


def _labels(pairs: list[tuple[str, str]]) -> str:
    body = ",".join(f'{k}="{v.translate(_ESCAPES)}"' for k, v in pairs)
    return "{" + body + "}" if body else ""


def to_prometheus(events: Iterable[Event]) -> str:
    """Prometheus text exposition 0.0.4 of the families in ``_FAMILIES``.

    Series are sorted by label values; summary quantiles are
    ``np.quantile(..., method="linear")`` of the observed values.
    """
    rows_of: dict = {}
    for i, row in enumerate(_FAMILIES):
        rows_of.setdefault(row[2], []).append(i)
    span_rows = rows_of.pop(None)
    series: list[dict] = [{} for _ in _FAMILIES]
    for event in events:
        rows = rows_of.get(event.name, [])
        if _is_span(event):
            rows = rows + span_rows
        for i in rows:
            _fam, kind, _name, labels, key, _help = _FAMILIES[i]
            value = _value(event, key)
            if value is None:  # an event without the family's value
                continue
            label_key = tuple(str(_value(event, k)) for k in labels.values())
            children = series[i]
            if kind == "summary":
                children.setdefault(label_key, []).append(float(value))
            elif kind == "counter":
                children[label_key] = children.get(label_key, 0.0) + value
            else:
                children[label_key] = float(value)
    lines: list[str] = []
    for (fam, kind, _name, labels, _key, help_text), children in zip(
            _FAMILIES, series):
        if not children:
            continue
        lines += [f"# HELP {fam} {help_text}", f"# TYPE {fam} {kind}"]
        for label_key, value in sorted(children.items()):
            pairs = list(zip(labels, label_key))
            base = _labels(pairs)
            if kind != "summary":
                lines.append(f"{fam}{base} {value:g}")
                continue
            quantiles = np.quantile(value, EXPORT_QUANTILES, method="linear")
            lines += [f"{fam}{_labels(pairs + [('quantile', str(q))])} {at:g}"
                      for q, at in zip(EXPORT_QUANTILES, quantiles)]
            lines += [f"{fam}_sum{base} {sum(value):g}",
                      f"{fam}_count{base} {len(value)}"]
    return "\n".join(lines) + "\n"
