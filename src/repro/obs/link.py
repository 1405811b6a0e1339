"""Per-link telemetry: EWMA/windowed latency, loss and retransmit rates.

The future adaptive-topology planner (ROADMAP) needs *measured* per-pair
link state — not the latency model's parameters, but what the messages
actually experienced.  :class:`LinkTelemetry` subscribes to the event
bus and folds the causal net events into per-``(src, dst)``
:class:`LinkStats`:

- **delivered latency** — paired ``net.send`` -> first ``net.deliver``
  per causal span (so it needs ``observe(causal=True)``; without span
  ids there is no send/deliver pairing and only counts accumulate),
  tracked as both an EWMA and an exact sliding window;
- **loss rate** — windowed fraction of dropped vs. delivered messages;
- **retransmit rate** — transport retransmissions per logical send.

The wave engine (`repro.simnet.waves`) does not emit one event per
message: bulk runs publish *count-carrying* aggregates — a ``net.wave``
issuance event (folded into ``wave_messages`` / ``wave_dropped``), and
``net.deliver`` / ``net.drop`` / ``net.retransmit`` events with a
``count`` field but no ``(src, dst)`` pair, which the per-pair
handlers count as seen and otherwise skip.

Snapshot the whole thing as a matrix (:meth:`LinkTelemetry.matrix`),
JSON (:meth:`snapshot` — the ``/status`` endpoint serves this), or
Prometheus gauges (:meth:`publish`).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Tuple

from .bus import Event, EventBus
from .metrics import MetricsRegistry

__all__ = ["LinkStats", "LinkTelemetry"]

#: EWMA smoothing factor (weight of the newest sample).
DEFAULT_ALPHA = 0.2
#: sliding-window length (samples) for windowed estimators.
DEFAULT_WINDOW = 64
#: bound on in-flight (sent, not yet delivered) spans tracked.
DEFAULT_MAX_PENDING = 4096


@dataclass
class LinkStats:
    """Running estimators for one directed (src, dst) pair."""

    src: int
    dst: int
    sends: int = field(default=0, init=False)
    delivered: int = field(default=0, init=False)
    dropped: int = field(default=0, init=False)
    retransmits: int = field(default=0, init=False)
    latency_ewma_ms: Optional[float] = field(default=None, init=False)
    last_latency_ms: Optional[float] = field(default=None, init=False)
    _latencies: Deque[float] = field(default_factory=deque, init=False, repr=False)
    _outcomes: Deque[int] = field(default_factory=deque, init=False, repr=False)

    def observe_latency(self, latency_ms: float) -> None:
        self.last_latency_ms = latency_ms
        if self.latency_ewma_ms is None:
            self.latency_ewma_ms = latency_ms
        else:
            self.latency_ewma_ms += DEFAULT_ALPHA * (
                latency_ms - self.latency_ewma_ms
            )
        self._latencies.append(latency_ms)
        if len(self._latencies) > DEFAULT_WINDOW:
            self._latencies.popleft()

    def observe_outcome(self, delivered: bool) -> None:
        if delivered:
            self.delivered += 1
        else:
            self.dropped += 1
        self._outcomes.append(1 if delivered else 0)
        if len(self._outcomes) > DEFAULT_WINDOW:
            self._outcomes.popleft()

    @property
    def latency_window_ms(self) -> Optional[float]:
        """Mean delivered latency over the sliding window."""
        if not self._latencies:
            return None
        return sum(self._latencies) / len(self._latencies)

    @property
    def loss_rate(self) -> Optional[float]:
        """Windowed fraction of attempts that were dropped."""
        if not self._outcomes:
            return None
        return 1.0 - sum(self._outcomes) / len(self._outcomes)

    @property
    def retransmit_rate(self) -> float:
        """Transport retransmissions per logical send.

        Bulk wave runs never emit per-message ``net.send`` events, so
        when no sends were seen the delivered count stands in as the
        logical-send denominator (each message delivers once)."""
        base = self.sends or self.delivered
        return self.retransmits / base if base else 0.0

    def to_dict(self) -> dict:
        return {
            "src": self.src,
            "dst": self.dst,
            "sends": self.sends,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "retransmits": self.retransmits,
            "latency_ewma_ms": self.latency_ewma_ms,
            "latency_window_ms": self.latency_window_ms,
            "last_latency_ms": self.last_latency_ms,
            "loss_rate": self.loss_rate,
            "retransmit_rate": self.retransmit_rate,
        }


class LinkTelemetry:
    """Bus subscriber folding net events into per-pair link estimators.

    Usage::

        with observe(causal=True) as obs:
            link = obs.attach_link()
            run_two_layer_wire_round(...)
        link.matrix()      # {(src, dst): {...}}
        link.publish(obs.metrics)   # link_* gauges for /metrics

    Transport ACK frames are not tracked: ACK latency duplicates the
    data-frame latency and would halve the apparent loss.
    """

    def __init__(self) -> None:
        self._pairs: Dict[Tuple[int, int], LinkStats] = {}
        # span id -> send timestamp; bounded FIFO so a span whose
        # delivery never comes cannot grow the map without bound.
        self._pending: "OrderedDict[str, float]" = OrderedDict()
        self.events_seen = 0
        #: aggregate totals from count-carrying ``net.wave`` issuance
        #: events (the wave engine's stand-in for per-message sends).
        self.wave_messages = 0
        self.wave_dropped = 0

    # ----------------------------------------------------------- subscription
    def attach(self, bus: EventBus) -> "LinkTelemetry":
        bus.subscribe(self)
        return self

    def detach(self, bus: EventBus) -> None:
        bus.unsubscribe(self)

    def __call__(self, event: Event) -> None:
        name = event.name
        if not name.startswith("net."):
            return
        kind = event.fields.get("kind")
        if kind == "net.ack":
            return
        if name == "net.send":
            self._on_send(event)
        elif name == "net.deliver":
            self._on_deliver(event)
        elif name == "net.drop":
            self._on_drop(event)
        elif name == "net.retransmit":
            self._on_retransmit(event)
        elif name == "net.wave":
            self._on_wave(event)

    def _pair(self, src: int, dst: int) -> LinkStats:
        stats = self._pairs.get((src, dst))
        if stats is None:
            stats = self._pairs[(src, dst)] = LinkStats(src=src, dst=dst)
        return stats

    def _on_send(self, event: Event) -> None:
        self.events_seen += 1
        src, dst = event.node, event.fields.get("dst")
        if src is None or dst is None:
            return
        self._pair(src, dst).sends += 1
        span = event.fields.get("span")
        if span is not None and event.t_ms is not None:
            self._pending[span] = float(event.t_ms)
            while len(self._pending) > DEFAULT_MAX_PENDING:
                self._pending.popitem(last=False)

    def _on_wave(self, event: Event) -> None:
        self.events_seen += 1
        self.wave_messages += int(event.fields.get("count", 0))
        self.wave_dropped += int(event.fields.get("dropped", 0))

    def _on_deliver(self, event: Event) -> None:
        self.events_seen += 1
        src, dst = event.node, event.fields.get("dst")
        if src is None or dst is None:
            return
        stats = self._pair(src, dst)
        stats.observe_outcome(delivered=True)
        span = event.fields.get("span")
        if span is not None and event.t_ms is not None:
            # First delivery only: a duplicate (retransmit racing the
            # ACK) would under-report, the first copy is the latency.
            sent = self._pending.pop(span, None)
            if sent is not None:
                stats.observe_latency(float(event.t_ms) - sent)

    def _on_drop(self, event: Event) -> None:
        self.events_seen += 1
        src, dst = event.node, event.fields.get("dst")
        if src is None or dst is None:
            return
        # Keep the pending send entry: under the reliable transport a
        # dropped physical copy may still deliver on a retransmission.
        self._pair(src, dst).observe_outcome(delivered=False)

    def _on_retransmit(self, event: Event) -> None:
        self.events_seen += 1
        src, dst = event.node, event.fields.get("dst")
        if src is None or dst is None:
            return
        self._pair(src, dst).retransmits += 1

    # -------------------------------------------------------------- read side
    def pair(self, src: int, dst: int) -> Optional[LinkStats]:
        return self._pairs.get((src, dst))

    def pairs(self) -> Dict[Tuple[int, int], LinkStats]:
        return dict(self._pairs)

    def matrix(self) -> Dict[Tuple[int, int], dict]:
        """Per-pair estimator snapshot keyed by (src, dst)."""
        return {
            key: self._pairs[key].to_dict() for key in sorted(self._pairs)
        }

    def snapshot(self) -> dict:
        """JSON-able snapshot (the ``/status`` endpoint's ``link`` block)."""
        return {
            "pairs": [
                self._pairs[key].to_dict() for key in sorted(self._pairs)
            ],
            "in_flight": len(self._pending),
            "wave_messages": self.wave_messages,
            "wave_dropped": self.wave_dropped,
        }

    def publish(self, metrics: MetricsRegistry) -> None:
        """Write the current estimators as ``link_*`` gauges.

        Gauges are *set*, not incremented, so republishing after every
        round is idempotent.
        """
        lat = metrics.gauge(
            "link_latency_ewma_ms",
            "EWMA of delivered per-link latency (causal pairing).",
            labels=("src", "dst"),
        )
        loss = metrics.gauge(
            "link_loss_rate",
            "Windowed per-link loss rate.",
            labels=("src", "dst"),
        )
        rtx = metrics.gauge(
            "link_retransmit_rate",
            "Transport retransmissions per logical send, per link.",
            labels=("src", "dst"),
        )
        seen = metrics.gauge(
            "link_delivered_total",
            "Messages delivered per link (telemetry view).",
            labels=("src", "dst"),
        )
        for (src, dst), stats in sorted(self._pairs.items()):
            labels = {"src": str(src), "dst": str(dst)}
            if stats.latency_ewma_ms is not None:
                lat.labels(**labels).set(stats.latency_ewma_ms)
            if stats.loss_rate is not None:
                loss.labels(**labels).set(stats.loss_rate)
            rtx.labels(**labels).set(stats.retransmit_rate)
            seen.labels(**labels).set(float(stats.delivered))
