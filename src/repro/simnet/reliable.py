"""Reliable delivery on top of the lossy simulated network.

The paper's protocols are specified over TCP, where the transport — not
the application — retries lost segments.  The simulator's default
``fire_and_forget`` transport has no such layer: one lost share silently
stalls a round until its blunt ``round_timeout_ms``.  This module adds
the missing piece: a stop-and-wait ACK/retransmit channel with
exponential backoff and a bounded attempt budget, opted into per
:class:`~repro.simnet.network.Network` via ``transport="reliable"``.

Semantics
---------
- Every application message becomes a :class:`DataFrame` carrying a
  transport sequence number (``FRAME_HEADER_BITS`` of wire overhead).
- The receiver ACKs every frame it sees — including duplicates — and
  delivers each sequence number to the application exactly once.
- The sender retransmits on an exponential-backoff timer
  (``base_rto_ms * BACKOFF**attempt``) until the ACK lands or
  ``max_attempts`` transmissions have been made.
- Accounting is honest: every physical (re)transmission and every ACK
  is traced with its real size; ``retransmits`` / ``acks_sent`` count
  them on the transport, and the obs metrics count retransmissions
  (``net_retransmits_total``) and ACK fates (``net_messages_total`` /
  ``net_dropped_total`` with ``kind="net.ack"``), so the cost of
  reliability is measured, never hidden.
- A sender that crashes for good abandons its pending frames (a dead
  process retransmits nothing); a sender with a recovery scheduled
  holds them — attempts unburned — and resends on rejoin, modelling a
  process that restarts with its durable send queue.  Frames addressed
  to a crashed peer burn their budget and are then abandoned —
  protocol-level fault tolerance (Alg. 4 replica fetches, Raft
  re-election) owns that case.

``exhausted_undelivered`` records budget exhaustions where the payload
*never* reached an alive destination — the transport-level failure mode
the chaos invariants surface as a typed degradation instead of a hang.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from ..obs import runtime as _obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..obs.causal import TraceContext
    from .events import TimerHandle
    from .network import Network

#: transport header on every data frame (sequence number + flags).
FRAME_HEADER_BITS = 64.0
#: size of one ACK frame on the wire.
ACK_BITS = 64.0
#: transport modes accepted by :class:`~repro.simnet.network.Network`.
TRANSPORTS = ("fire_and_forget", "reliable")
#: the factor each retransmission multiplies the RTO by.
BACKOFF = 2.0


def check_transport(transport: str) -> str:
    if transport not in TRANSPORTS:
        raise ValueError(
            f"unknown transport {transport!r}; expected one of {TRANSPORTS}"
        )
    return transport


@dataclass(frozen=True)
class DataFrame:
    """An application message wrapped with a transport sequence number."""

    seq: int
    payload: Any
    payload_bits: float
    kind: str

    def size_bits(self) -> float:
        return self.payload_bits + FRAME_HEADER_BITS


@dataclass(frozen=True)
class AckFrame:
    """Transport acknowledgement for one :class:`DataFrame`."""

    seq: int

    def size_bits(self) -> float:
        return ACK_BITS


@dataclass
class _Pending:
    """Sender-side state for one unacknowledged frame."""

    frame: DataFrame
    src: int
    dst: int
    attempts: int = field(default=0, init=False)
    timer: Optional["TimerHandle"] = field(default=None, init=False)
    # Causal span of the logical send: every physical (re)transmission
    # of this frame is the same message, so they share one span.
    ctx: Optional["TraceContext"] = None


@dataclass(frozen=True)
class ExhaustedSend:
    """One frame whose retransmit budget ran out before an ACK."""

    src: int
    dst: int
    kind: str
    delivered: bool  # god's-eye: did any attempt actually reach dst?


class ReliableTransport:
    """ACK/retransmit channel bound to one :class:`Network`.

    Parameters
    ----------
    network:
        The owning network; physical transmission and fault state
        (crashes, partitions, loss) stay entirely in its hands.
    base_rto_ms:
        First retransmission timeout.  Should exceed one round trip;
        the protocol runners default it to ``4 * delay_ms``.  Every
        attempt multiplies the RTO by :data:`BACKOFF`.
    max_attempts:
        Total transmissions (first send included) before giving up.
    """

    def __init__(
        self,
        network: "Network",
        base_rto_ms: float = 60.0,
        max_attempts: int = 8,
    ) -> None:
        if base_rto_ms <= 0:
            raise ValueError("base_rto_ms must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.network = network
        self.base_rto_ms = base_rto_ms
        self.backoff = BACKOFF
        self.max_attempts = max_attempts
        self._next_seq = 0
        self._pending: dict[int, _Pending] = {}
        self._delivered_seqs: set[int] = set()
        # counters surfaced on per-round results
        self.retransmits = 0
        self.acks_sent = 0
        self.duplicates_suppressed = 0
        self.exhausted: list[ExhaustedSend] = []

    # ------------------------------------------------------------------ sender
    def send(self, src: int, dst: int, msg: Any, size_bits: float,
             kind: str, ctx: Optional["TraceContext"] = None) -> None:
        """Ship ``msg`` reliably; called by :meth:`Network.send`."""
        frame = DataFrame(self._next_seq, msg, size_bits, kind)
        self._next_seq += 1
        pending = _Pending(frame=frame, src=src, dst=dst, ctx=ctx)
        self._pending[frame.seq] = pending
        self._transmit(pending)

    def _transmit(self, pending: _Pending) -> None:
        pending.attempts += 1
        frame = pending.frame
        self.network.physical_send(
            pending.src, pending.dst, frame,
            size_bits=frame.size_bits(), kind=frame.kind, ctx=pending.ctx,
        )
        rto = self.base_rto_ms * self.backoff ** (pending.attempts - 1)
        pending.timer = self.network.sim.schedule(
            rto, lambda: self._on_rto(frame.seq)
        )

    def _on_rto(self, seq: int) -> None:
        pending = self._pending.get(seq)
        if pending is None:  # ACKed in the meantime
            return
        if self.network.is_crashed(pending.src):
            if self.network.may_recover(pending.src):
                # The sender will restart with its durable state: hold
                # the frame (attempts unburned) and probe again after
                # another backoff period so it is resent on rejoin.
                rto = self.base_rto_ms * self.backoff ** (pending.attempts - 1)
                pending.timer = self.network.sim.schedule(
                    rto, lambda: self._on_rto(seq)
                )
                return
            # A permanently dead process retransmits nothing.
            del self._pending[seq]
            return
        if pending.attempts >= self.max_attempts:
            del self._pending[seq]
            delivered = seq in self._delivered_seqs
            self.exhausted.append(
                ExhaustedSend(pending.src, pending.dst, pending.frame.kind,
                              delivered=delivered)
            )
            obs = _obs.OBS
            if obs.enabled:
                extra = (
                    pending.ctx.child_fields() if pending.ctx is not None
                    else {}
                )
                obs.emit(
                    "net.retransmit_exhausted", t_ms=self.network.sim.now,
                    node=pending.src, dst=pending.dst,
                    kind=pending.frame.kind, attempts=pending.attempts,
                    delivered=delivered, **extra,
                )
            return
        self.retransmits += 1
        obs = _obs.OBS
        if obs.enabled:
            extra = (
                pending.ctx.child_fields() if pending.ctx is not None else {}
            )
            obs.emit(
                "net.retransmit", t_ms=self.network.sim.now,
                node=pending.src, dst=pending.dst,
                kind=pending.frame.kind, attempt=pending.attempts + 1,
                **extra,
            )
        self._transmit(pending)

    # ---------------------------------------------------------------- receiver
    def on_frame(self, src: int, dst: int, frame: DataFrame) -> None:
        """A data frame physically arrived at an alive ``dst``."""
        # ACK unconditionally (duplicates included) so the sender stops.
        self.acks_sent += 1
        obs = _obs.OBS
        ack_ctx = (
            self.network.alloc_context(dst, src, "net.ack", ACK_BITS)
            if obs.enabled and obs.causal else None
        )
        self.network.physical_send(
            dst, src, AckFrame(frame.seq),
            size_bits=ACK_BITS, kind="net.ack", ctx=ack_ctx,
        )
        if frame.seq in self._delivered_seqs:
            self.duplicates_suppressed += 1
            return
        self._delivered_seqs.add(frame.seq)
        self.network.deliver_to_node(src, dst, frame.payload)

    def on_ack(self, src: int, dst: int, ack: AckFrame) -> None:
        """An ACK physically arrived back at the original sender."""
        pending = self._pending.pop(ack.seq, None)
        if pending is not None and pending.timer is not None:
            pending.timer.cancel()

    # --------------------------------------------------------------- inspection
    @property
    def exhausted_undelivered(self) -> int:
        """Budget exhaustions whose payload never reached an alive peer.

        Exhaustions where the data *was* delivered (only the ACKs kept
        getting lost) are harmless; exhaustions against a crashed
        destination are the protocol layer's problem (Alg. 4 recovers
        them).  What remains is the genuine transport failure mode:
        an alive, reachable-in-principle destination that never got the
        payload — the chaos runners degrade the round with a typed
        outcome when this fires instead of idling to the round timeout.
        """
        return sum(
            1 for e in self.exhausted
            if not e.delivered and not self._dst_crashed(e.dst)
        )

    def _dst_crashed(self, dst: int) -> bool:
        """Crash state now: live ``crash()`` state, or the fault
        timeline's (a wave round runs no crash callbacks)."""
        net = self.network
        if net.is_crashed(dst):
            return True
        tl = net.fault_timeline
        return tl is not None and bool(
            tl.crashed_at(np.array([dst]), np.array([net.sim.now]))[0])
