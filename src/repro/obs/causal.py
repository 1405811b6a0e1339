"""Causal message tracing: spans, DAGs, and the round critical path.

Every ``simnet`` message send can carry a :class:`TraceContext` —
``(trace_id, span_id, parent_id)`` — allocated by
:meth:`~repro.simnet.network.Network.alloc_context` when the installed
pipeline has ``causal=True`` (``observe(causal=True)``).  Propagation is
mechanical and protocol-agnostic:

- ``Network.send`` allocates a span per logical send and emits a
  ``net.send`` event carrying ``span``/``parent``/``trace`` fields;
- the delivery callback runs the receiving handler inside
  :func:`use`, so any message the handler sends in response gets the
  delivered span as its ``parent_id``;
- :meth:`~repro.simnet.node.SimNode.set_timer` captures the context
  active at *arming* time and restores it when the timer fires, so
  timeout-driven sends (SAC recovery, Raft elections) stay chained;
- reliable-transport retransmits reuse the original frame's span (a
  retransmit is the same logical message, re-sent), and ACKs get their
  own child span.

Span ids are deterministic: each ``(src, dst, kind)`` channel numbers
its sends ``0, 1, 2, …``, giving ``"src>dst:kind#n"``, so the same
round at the same seed produces the same span ids on every run.

This module is the read side: rebuild the causal DAG from an event
stream (:func:`build_dag`) and extract the longest causal chain per
round (:func:`critical_path`) — the true round-latency decomposition,
hop by hop.  With every root send at virtual time 0 (``start_round``)
and handlers running at delivery instants, the critical path's end
timestamp *is* the simulated round latency.  :func:`link_table` reduces
the same events per ``(src, dst)`` pair: counts from the ``net.*``
events, first-delivery latency from the DAG's spans.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .bus import Event

__all__ = [
    "TraceContext",
    "current",
    "use",
    "MessageSpan",
    "CausalDag",
    "build_dag",
    "Hop",
    "CriticalPath",
    "critical_path",
    "critical_paths_by_trace",
    "LinkRow",
    "link_table",
]


@dataclass(frozen=True)
class TraceContext:
    """One message send's identity in the causal DAG (frozen)."""

    trace_id: str
    span_id: str
    parent_id: Optional[str] = None

    def child_fields(self) -> dict:
        """The event fields a span-carrying ``net.*`` event attaches."""
        return {
            "span": self.span_id,
            "parent": self.parent_id,
            "trace": self.trace_id,
        }


# --------------------------------------------------------------------------
# Propagation.  The active context is per host thread, so a simulator
# driven on one thread never sees a delivery context of another (e.g. a
# caller running independent rounds on its own thread pool).
# --------------------------------------------------------------------------

_local = threading.local()


def current() -> Optional[TraceContext]:
    """The context of the message being delivered right now, if any."""
    return getattr(_local, "ctx", None)


@contextmanager
def use(ctx: Optional[TraceContext]) -> Iterator[Optional[TraceContext]]:
    """Run a handler with ``ctx`` as the active causal parent."""
    prev = getattr(_local, "ctx", None)
    _local.ctx = ctx
    try:
        yield ctx
    finally:
        _local.ctx = prev


def make_span_id(src: int, dst: int, kind: str, n: int) -> str:
    """Deterministic span id: the n-th send on the (src, dst, kind) channel."""
    return f"{src}>{dst}:{kind}#{n}"


# --------------------------------------------------------------------------
# DAG reconstruction from the event stream.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MessageSpan:
    """One message's life, reassembled from ``net.*`` events."""

    span_id: str
    trace_id: str
    parent_id: Optional[str]
    src: int
    dst: int
    kind: str
    send_ms: float
    deliver_ms: Optional[float] = None
    deliver_seq: int = -1
    retransmits: int = 0
    drops: int = 0

    @property
    def delivered(self) -> bool:
        return self.deliver_ms is not None

    @property
    def flight_ms(self) -> Optional[float]:
        """Send-to-delivery latency (includes retransmission delays)."""
        if self.deliver_ms is None:
            return None
        return self.deliver_ms - self.send_ms


class CausalDag:
    """The per-round causal DAG over :class:`MessageSpan` nodes."""

    def __init__(self, spans: Dict[str, MessageSpan]) -> None:
        self.spans = spans
        self.children: Dict[str, List[str]] = {}
        for span in spans.values():
            if span.parent_id is not None and span.parent_id in spans:
                self.children.setdefault(span.parent_id, []).append(
                    span.span_id
                )

    def __len__(self) -> int:
        return len(self.spans)

    def roots(self) -> List[MessageSpan]:
        """Spans with no (known) causal parent — the t=0 initiating sends."""
        return [
            s for s in self.spans.values()
            if s.parent_id is None or s.parent_id not in self.spans
        ]

    def chain(self, span_id: str) -> List[MessageSpan]:
        """The root-to-``span_id`` ancestor chain, root first."""
        out: List[MessageSpan] = []
        seen: set = set()
        cur: Optional[str] = span_id
        while cur is not None and cur in self.spans and cur not in seen:
            seen.add(cur)
            span = self.spans[cur]
            out.append(span)
            cur = span.parent_id
        out.reverse()
        return out

    def critical_path(self) -> Optional["CriticalPath"]:
        """The causal chain ending at the last delivered app message.

        ACK frames are bookkeeping, not protocol progress, so spans of
        kind ``net.ack`` cannot terminate the path (they may still sit
        *inside* one, as a retransmitted frame's cause).  Ties on the
        final delivery time break on bus ``seq`` — deterministic.
        """
        terminal: Optional[MessageSpan] = None
        for span in self.spans.values():
            if span.deliver_ms is None or span.kind == "net.ack":
                continue
            if terminal is None or (
                (span.deliver_ms, span.deliver_seq)
                > (terminal.deliver_ms, terminal.deliver_seq)
            ):
                terminal = span
        if terminal is None:
            return None
        hops = tuple(
            Hop(
                span_id=s.span_id,
                kind=s.kind,
                src=s.src,
                dst=s.dst,
                send_ms=s.send_ms,
                deliver_ms=s.deliver_ms,
                retransmits=s.retransmits,
            )
            for s in self.chain(terminal.span_id)
        )
        return CriticalPath(trace_id=terminal.trace_id, hops=hops)


def build_dag(events: Iterable[Event]) -> CausalDag:
    """Reassemble the causal DAG from span-carrying ``net.*`` events.

    The stream should hold one round: span ids restart with every
    network, so :func:`critical_paths_by_trace` and :func:`link_table`
    build one DAG per trace id.
    """
    spans: Dict[str, MessageSpan] = {}
    for e in events:
        span_id = e.fields.get("span")
        if span_id is None:
            continue
        if e.name == "net.send":
            spans[span_id] = MessageSpan(
                span_id=span_id,
                trace_id=e.fields.get("trace", ""),
                parent_id=e.fields.get("parent"),
                src=e.node if e.node is not None else -1,
                dst=e.fields.get("dst", -1),
                kind=e.fields.get("kind", ""),
                send_ms=e.t_ms if e.t_ms is not None else 0.0,
            )
        elif e.name == "net.deliver":
            span = spans.get(span_id)
            # First delivery wins: reliable-transport duplicates are
            # suppressed at the receiver, so causality follows the copy
            # that arrived first.
            if span is not None and span.deliver_ms is None:
                spans[span_id] = MessageSpan(
                    **{
                        **span.__dict__,
                        "deliver_ms": e.t_ms,
                        "deliver_seq": e.seq,
                    }
                )
        elif e.name == "net.retransmit":
            span = spans.get(span_id)
            if span is not None:
                spans[span_id] = MessageSpan(
                    **{**span.__dict__, "retransmits": span.retransmits + 1}
                )
        elif e.name == "net.drop":
            span = spans.get(span_id)
            if span is not None:
                spans[span_id] = MessageSpan(
                    **{**span.__dict__, "drops": span.drops + 1}
                )
    return CausalDag(spans)


# --------------------------------------------------------------------------
# Critical path.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Hop:
    """One wire stage on the critical path."""

    span_id: str
    kind: str
    src: int
    dst: int
    send_ms: float
    deliver_ms: float
    retransmits: int = 0

    @property
    def flight_ms(self) -> float:
        return self.deliver_ms - self.send_ms


@dataclass(frozen=True)
class CriticalPath:
    """The longest causal chain of one round, root send first.

    ``latency_ms`` spans from the root send (virtual t=0 for a round
    started at the epoch) to the terminal delivery — with causal
    tracing on, this equals the round's simulated finish time exactly.
    """

    trace_id: str
    hops: Tuple[Hop, ...]

    @property
    def start_ms(self) -> float:
        return self.hops[0].send_ms

    @property
    def end_ms(self) -> float:
        return self.hops[-1].deliver_ms

    @property
    def latency_ms(self) -> float:
        return self.end_ms - self.start_ms

    def format(self) -> str:
        """Human table: per-stage handoff (compute) + flight (wire) time."""
        lines = [
            f"critical path [{self.trace_id}]: "
            f"{len(self.hops)} hops, {self.latency_ms:.3f} ms",
            f"  {'#':>2} {'kind':<14} {'link':>9} {'sent':>9} "
            f"{'recv':>9} {'flight':>8} {'handoff':>8} rtx",
        ]
        prev_deliver = self.start_ms
        for i, hop in enumerate(self.hops):
            handoff = hop.send_ms - prev_deliver
            lines.append(
                f"  {i:>2} {hop.kind:<14} {hop.src:>3}->{hop.dst:<4} "
                f"{hop.send_ms:>9.2f} {hop.deliver_ms:>9.2f} "
                f"{hop.flight_ms:>8.2f} {handoff:>8.2f} "
                f"{hop.retransmits or '':>3}"
            )
            prev_deliver = hop.deliver_ms
        return "\n".join(lines)


def critical_path(events: Iterable[Event]) -> Optional[CriticalPath]:
    """Shortcut: build the DAG and extract its critical path."""
    return build_dag(events).critical_path()


def _dags_by_trace(events: Iterable[Event]) -> Dict[str, CausalDag]:
    """One DAG per trace id, in trace-id order, from one pass."""
    by_trace: Dict[str, List[Event]] = {}
    for e in events:
        if "span" in e.fields:
            by_trace.setdefault(e.fields.get("trace", ""), []).append(e)
    return {tid: build_dag(by_trace[tid]) for tid in sorted(by_trace)}


def critical_paths_by_trace(
    events: Iterable[Event],
) -> Dict[str, CriticalPath]:
    """One critical path per distinct trace id in the stream."""
    out: Dict[str, CriticalPath] = {}
    for tid, dag in _dags_by_trace(events).items():
        path = dag.critical_path()
        if path is not None:
            out[tid] = path
    return out


# --------------------------------------------------------------------------
# Per-link table.
# --------------------------------------------------------------------------

#: per-message ``net.*`` event -> the :class:`LinkRow` count it adds to.
_LINK_COUNTS = {
    "net.send": "sends",
    "net.deliver": "delivered",
    "net.drop": "dropped",
    "net.retransmit": "retransmits",
}


@dataclass
class LinkRow:
    """One directed ``(src, dst)`` pair's traffic over a finished run."""

    src: int
    dst: int
    sends: int = field(default=0, init=False)
    delivered: int = field(default=0, init=False)
    dropped: int = field(default=0, init=False)
    retransmits: int = field(default=0, init=False)
    #: send-to-first-delivery time of each delivered span (causal runs).
    latencies_ms: List[float] = field(default_factory=list, init=False)

    @property
    def loss_rate(self) -> float:
        """Dropped physical copies over all that were delivered or dropped."""
        attempts = self.delivered + self.dropped
        return self.dropped / attempts if attempts else 0.0

    @property
    def mean_latency_ms(self) -> Optional[float]:
        if not self.latencies_ms:
            return None
        return sum(self.latencies_ms) / len(self.latencies_ms)

    @property
    def max_latency_ms(self) -> Optional[float]:
        return max(self.latencies_ms, default=None)


def link_table(events: Iterable[Event]) -> Dict[Tuple[int, int], LinkRow]:
    """Per-``(src, dst)`` counts and latencies of a run's non-ACK traffic.

    Counts come from every per-message ``net.*`` event; latency is a
    span's send to its first delivery (:func:`build_dag`), so only a log
    written under ``observe(causal=True)`` has any.  Transport ACKs are
    left out: their latency repeats the data frame's and they would
    halve the apparent loss.  The wave engine's count-carrying
    aggregates name no pair and are left out too.
    """
    events = list(events)
    rows: Dict[Tuple[int, int], LinkRow] = {}
    for e in events:
        count = _LINK_COUNTS.get(e.name)
        dst = e.fields.get("dst")
        if (count is None or e.node is None or dst is None
                or e.fields.get("kind") == "net.ack"):
            continue
        link = rows.setdefault((e.node, dst), LinkRow(e.node, dst))
        setattr(link, count, getattr(link, count) + 1)
    for dag in _dags_by_trace(events).values():
        for span in dag.spans.values():
            if span.delivered and span.kind != "net.ack":
                link = rows.setdefault((span.src, span.dst),
                                       LinkRow(span.src, span.dst))
                link.latencies_ms.append(span.flight_ms)
    return rows
