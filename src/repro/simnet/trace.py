"""Per-message byte accounting.

The communication-cost figures of the paper (Fig. 13, Fig. 14) count the
bits crossing the network per aggregation round.  Every message sent via
:class:`repro.simnet.network.Network` becomes a :class:`MessageRecord`
(or, for a delivery wave, one :class:`WaveRecord`) tagged with a
free-form ``kind`` (e.g. ``"sac.share"``, ``"raft.append_entries"``) so
experiments can slice costs by protocol and layer.  The network hands
each record straight to its own :class:`TraceRecorder`; the obs event
bus carries only the typed ``net.*`` events.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class MessageRecord:
    """One delivered (or dropped) message."""

    time: float
    src: int
    dst: int
    kind: str
    bits: float
    delivered: bool = True


@dataclass(frozen=True)
class WaveRecord:
    """An aggregate record for a delivery-wave run: ``count`` messages of
    one ``kind`` totalling ``bits`` delivered (or dropped) together.

    The wave engine (:mod:`repro.simnet.waves`) moves whole batches of
    same-phase messages per heap event; recording one aggregate record
    per run keeps byte accounting O(runs) instead of O(messages) while
    producing the exact same totals as per-message records.  ``time`` is
    the run's last delivery time.
    """

    time: float
    kind: str
    count: int
    bits: float
    delivered: bool = True


class TraceRecorder:
    """Accumulates :class:`MessageRecord` and aggregates bit counts.

    Recording full per-message history is optional (``keep_records``);
    aggregate counters are always maintained, so long simulations can run
    with O(1) memory.
    """

    def __init__(self, keep_records: bool = False) -> None:
        self.keep_records = keep_records
        self.records: list["MessageRecord | WaveRecord"] = []
        self._bits_by_kind: dict[str, float] = defaultdict(float)
        self._msgs_by_kind: dict[str, int] = defaultdict(int)
        self._dropped_by_kind: dict[str, int] = defaultdict(int)
        self.total_bits = 0.0
        self.total_messages = 0
        self.total_dropped = 0

    def record(self, rec: "MessageRecord | WaveRecord") -> None:
        count = rec.count if isinstance(rec, WaveRecord) else 1
        if self.keep_records:
            self.records.append(rec)
        if rec.delivered:
            self._bits_by_kind[rec.kind] += rec.bits
            self._msgs_by_kind[rec.kind] += count
            self.total_bits += rec.bits
            self.total_messages += count
        else:
            self._dropped_by_kind[rec.kind] += count
            self.total_dropped += count

    def bits(self, kind: str) -> float:
        """Delivered bits of one message kind."""
        return self._bits_by_kind.get(kind, 0.0)

    def messages(self, kind: str) -> int:
        """Delivered messages of one kind."""
        return self._msgs_by_kind.get(kind, 0)

    def dropped(self, kind: str) -> int:
        """Undelivered messages of one kind: every drop the network
        reported a :class:`MessageRecord` for (link down at send time, or
        random loss)."""
        return self._dropped_by_kind.get(kind, 0)

    def kinds(self) -> Iterator[str]:
        return iter(sorted(self._bits_by_kind))

    def by_kind(self) -> dict[str, float]:
        """Copy of the bits-per-kind table."""
        return dict(self._bits_by_kind)

    def reset(self) -> None:
        """Zero all counters (e.g. between aggregation rounds)."""
        self.records.clear()
        self._bits_by_kind.clear()
        self._msgs_by_kind.clear()
        self._dropped_by_kind.clear()
        self.total_bits = 0.0
        self.total_messages = 0
        self.total_dropped = 0
