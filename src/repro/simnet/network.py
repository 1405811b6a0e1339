"""Simulated network: latency models, delivery, crashes and partitions.

The paper's evaluation injects a fixed 15 ms one-way delay with ``tc``
(Sec. VI-B1).  :class:`FixedLatency` reproduces that; other models support
sensitivity studies.  Crash injection marks a node dead so that messages
to and from it are silently dropped — exactly how a crashed process looks
to its peers over TCP with no connection reuse.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Protocol, runtime_checkable

import numpy as np

from ..obs import causal as _causal
from ..obs import runtime as _obs
from ..obs.causal import TraceContext
from .events import Simulator
from .reliable import AckFrame, DataFrame, ReliableTransport, check_transport
from .trace import MessageRecord, TraceRecorder

#: Default one-way network delay in milliseconds (paper Sec. VI-B1).
DEFAULT_DELAY_MS = 15.0


@runtime_checkable
class LatencyModel(Protocol):
    """Samples one-way delays in milliseconds for (src, dst) pairs.

    ``sample`` draws one delay; ``sample_batch`` draws a whole wave's
    worth in a single vectorized pass.  The stream contract every model
    in this module honours: ``sample_batch(count, rng)`` consumes the
    RNG stream exactly as ``count`` sequential ``sample`` calls would
    (numpy fills batch draws element-by-element from the same stream),
    so a round produces bit-identical delays whichever API the sender
    used.  A batch takes no ids, so no model may read them, and callers
    only add it to departure times: a model whose every delay is the
    same answers with that one float.
    """

    def sample(self, src: int, dst: int, rng: np.random.Generator) -> float: ...

    def sample_batch(
        self, count: int, rng: np.random.Generator
    ) -> float | np.ndarray: ...


class FixedLatency:
    """Constant one-way delay (the paper uses 15 ms via ``tc``)."""

    def __init__(self, delay_ms: float = DEFAULT_DELAY_MS) -> None:
        if delay_ms < 0:
            raise ValueError("delay must be non-negative")
        self.delay_ms = delay_ms

    def sample(self, src: int, dst: int, rng: np.random.Generator) -> float:
        return self.delay_ms

    def sample_batch(self, count: int, rng: np.random.Generator) -> float:
        """The delay itself, whatever ``count``: callers add it to their
        departure times by broadcasting."""
        return float(self.delay_ms)


class Network:
    """Message fabric connecting :class:`~repro.simnet.node.SimNode` actors.

    Parameters
    ----------
    sim:
        The event loop driving delivery.
    latency:
        One-way delay model (defaults to the paper's fixed 15 ms).
    rng:
        Source of randomness for latency jitter and message loss.
    loss_rate:
        Probability that any given message is silently dropped.
    trace:
        Byte-accounting recorder: every send and drop is recorded on it
        directly (a fresh :class:`TraceRecorder` when not supplied).
    bandwidth_bps:
        Optional link bandwidth in bits per second.  When set, delivery
        takes ``latency + size_bits / bandwidth`` — model-sized payloads
        then dominate wall-clock time, as on a real network.  ``None``
        (default) models infinitely fast links, matching the paper's
        control-plane experiments where only the 15 ms latency matters.
    serialize_uplink:
        With a bandwidth set, also serialize each sender's outgoing
        transfers on its uplink (a peer pushing to many receivers sends
        one model at a time) — the first-order model of a P2P swarm that
        :mod:`repro.core.latency` analyzes.  Off by default: transfers
        to distinct receivers proceed in parallel.
    transport:
        ``"fire_and_forget"`` (default) ships every message exactly once
        — lost is lost, matching the seed's bit-for-bit cost pins.
        ``"reliable"`` routes application messages through a
        :class:`~repro.simnet.reliable.ReliableTransport` (ACKs,
        exponential-backoff retransmission, bounded attempts); the ACK
        and retransmission overhead is honestly traced.
    transport_opts:
        Keyword overrides for the :class:`ReliableTransport`
        (``base_rto_ms``, ``max_attempts``).
    """

    def __init__(
        self,
        sim: Simulator,
        latency: LatencyModel | None = None,
        rng: np.random.Generator | None = None,
        loss_rate: float = 0.0,
        trace: TraceRecorder | None = None,
        bandwidth_bps: float | None = None,
        serialize_uplink: bool = False,
        transport: str = "fire_and_forget",
        transport_opts: dict | None = None,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if bandwidth_bps is not None and bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if serialize_uplink and bandwidth_bps is None:
            raise ValueError("serialize_uplink requires a bandwidth")
        check_transport(transport)
        if transport_opts and transport != "reliable":
            raise ValueError("transport_opts requires transport='reliable'")
        self.sim = sim
        self.latency = latency if latency is not None else FixedLatency()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.loss_rate = loss_rate
        self.trace = trace if trace is not None else TraceRecorder()
        self.bandwidth_bps = bandwidth_bps
        self.serialize_uplink = serialize_uplink
        self.transport_mode = transport
        self.reliable: Optional[ReliableTransport] = (
            ReliableTransport(self, **(transport_opts or {}))
            if transport == "reliable" else None
        )
        #: optional :class:`repro.chaos.FaultTimeline` (installed by
        #: ``FaultSchedule.arm`` or the X-layer round): the one source of
        #: loss, delay and partition windows, and of :meth:`may_recover`.
        self.fault_timeline: Any = None
        #: trace id stamped on every TraceContext this network allocates
        #: (one id per round/scenario; set by the round runners).
        self.trace_id: str = "trace"
        # Per-(src, dst, kind) send counters: span ids are a pure
        # function of the protocol's message sequence, never of global
        # emission order.
        self._causal_seq: Dict[tuple, int] = {}
        self._uplink_free: Dict[int, float] = {}
        self._nodes: Dict[int, Any] = {}
        self._crashed: set[int] = set()
        # send() is the simulator's hottest path: cache the sorted id
        # lists (invalidated on register/crash/recover).
        self._node_ids_cache: Optional[list[int]] = None
        self._alive_ids_cache: Optional[list[int]] = None
        #: live message-object accounting for the resource profiler:
        #: messages scheduled but not yet delivered/dropped, and the
        #: high-water mark.  Two integer ops per message, taken whether
        #: or not observability is enabled.
        self.in_flight = 0
        self.peak_in_flight = 0
        #: the pending :class:`repro.simnet.waves._ItemLedger`: accounting
        #: item batches issued before the first of them is due replay
        #: merged, from one heap entry.
        self._ledger: Any = None

    # ------------------------------------------------------------------ nodes
    def register(self, node: Any) -> None:
        """Register an actor exposing ``node_id`` and ``deliver(src, msg)``."""
        node_id = node.node_id
        if node_id in self._nodes:
            raise ValueError(f"duplicate node id {node_id}")
        self._nodes[node_id] = node
        self._node_ids_cache = None
        self._alive_ids_cache = None

    def node(self, node_id: int) -> Any:
        return self._nodes[node_id]

    def node_ids(self) -> list[int]:
        if self._node_ids_cache is None:
            self._node_ids_cache = sorted(self._nodes)
        return self._node_ids_cache

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def close(self) -> None:
        """Release the actor graph once a run's results have been read.

        Nodes hold their network and the node table holds them; pending
        deliveries, timers and armed crash callbacks close over both;
        the reliable channel and a pending wave ledger point back here.
        Dropping the table, those two and the simulator's pending
        events (a half-replayed ledger lives only in one of them) leaves
        no reference cycle, so refcounting frees the run's state —
        peers, bundles, every payload array — as soon as the caller lets
        go, with no cyclic-collector pass.  Counters and the trace stay
        readable; nothing can be sent afterwards.
        """
        self.sim.clear()
        self._nodes.clear()
        self._node_ids_cache = self._alive_ids_cache = None
        self.reliable = None
        self._ledger = None

    # ----------------------------------------------------------------- faults
    def crash(self, node_id: int) -> None:
        """Crash a node: it stops sending and receiving until recovered."""
        self._crashed.add(node_id)
        self._alive_ids_cache = None
        obs = _obs.OBS
        if obs.enabled:
            obs.emit("net.crash", t_ms=self.sim.now, node=node_id)
        node = self._nodes.get(node_id)
        if node is not None and hasattr(node, "on_crash"):
            node.on_crash()

    def recover(self, node_id: int) -> None:
        """Bring a crashed node back (it rejoins with its durable state)."""
        self._crashed.discard(node_id)
        self._alive_ids_cache = None
        obs = _obs.OBS
        if obs.enabled:
            obs.emit("net.recover", t_ms=self.sim.now, node=node_id)
        node = self._nodes.get(node_id)
        if node is not None and hasattr(node, "on_recover"):
            node.on_recover()

    def is_crashed(self, node_id: int) -> bool:
        return node_id in self._crashed

    def alive_ids(self) -> list[int]:
        if self._alive_ids_cache is None:
            self._alive_ids_cache = [
                i for i in self.node_ids() if i not in self._crashed
            ]
        return self._alive_ids_cache

    def may_recover(self, node_id: int) -> bool:
        """Whether a crashed node has a recovery still scheduled: a
        ``Recover`` at or after now on the fault timeline (without one,
        crashes are permanent, the seed semantics of ``crash_at``)."""
        tl = self.fault_timeline
        return tl is not None and tl.may_recover(node_id, self.sim.now)

    def link_up(self, src: int, dst: int) -> bool:
        """Whether a message from ``src`` can currently reach ``dst``:
        both alive and, inside a partition window, on one side."""
        tl = self.fault_timeline
        return self._link_up(
            src, dst, None if tl is None else tl.span_at(self.sim.now))

    def _link_up(self, src: int, dst: int, span: Any) -> bool:
        """:meth:`link_up` given the timeline's span at now (or None)."""
        crashed = self._crashed
        if crashed and (src in crashed or dst in crashed):
            return False
        if span is None or span.groups is None:
            return True
        side = span.groups.get(src)  # outside every group: isolated
        return side is not None and side == span.groups.get(dst)

    # ------------------------------------------------------------------- send
    def send(
        self,
        src: int,
        dst: int,
        msg: Any,
        size_bits: float = 0.0,
        kind: str = "msg",
    ) -> None:
        """Send ``msg`` from ``src`` to ``dst`` with the modelled latency.

        Under the default fire-and-forget transport, delivery is skipped
        if either endpoint is crashed *at send or at delivery time*, if
        the link is partitioned, or if the message is lost.  Under
        ``transport="reliable"`` the message is framed, ACKed and
        retransmitted (see :mod:`repro.simnet.reliable`) — the same
        fault conditions apply to every physical attempt.  ``size_bits``
        feeds the communication-cost trace; control messages may leave
        it at 0.

        With causal tracing on (``observe(causal=True)``), every
        logical send allocates a :class:`TraceContext` whose parent is
        the message being delivered (or timer firing) right now.
        """
        obs = _obs.OBS
        ctx = (
            self.alloc_context(src, dst, kind, size_bits)
            if obs.enabled and obs.causal else None
        )
        if self.reliable is not None:
            if dst not in self._nodes:
                raise KeyError(f"unknown destination node {dst}")
            self.reliable.send(src, dst, msg, size_bits, kind, ctx=ctx)
            return
        self.physical_send(src, dst, msg, size_bits=size_bits, kind=kind,
                           ctx=ctx)

    def send_batch(
        self,
        src_ids: Any,
        dst_ids: Any,
        size_bits: float = 0.0,
        kind: str = "msg",
        at_times: Any = None,
    ) -> Any:
        """Send a whole batch of same-kind messages as one delivery wave.

        ``src_ids``/``dst_ids`` are equal-length integer arrays; message
        ``i`` departs at ``at_times[i]`` (default: now, and never before
        now) and arrives after an independently sampled latency, drawn
        in one vectorized pass.  The wave is pure accounting, carrying
        no payloads: peers are modelled by their ids alone, which is
        what lets X-layer rounds run at 10^5+ simulated peers.

        The batch takes one heap entry (see :mod:`repro.simnet.waves`)
        and replays exactly as one entry per message would: wave ==
        per-item replay (``tests/simnet/per_item.py``).  Under
        ``transport="reliable"`` or an installed ``fault_timeline`` the
        batch becomes an *item wave*: the whole stop-and-wait
        ACK/retransmit state machine (attempt cohorts, backoff epochs,
        ACK traffic, budget exhaustion) is precomputed vectorized;
        item batches pending on a network share one heap entry.  Causal
        spans are not allocated for wave messages.

        The timeline is a wave's only fault source: live ``crash()``
        state, a bandwidth and loss without ``transport="reliable"``
        raise ``ValueError`` (the per-message ``send`` path models them
        all).

        Returns the :class:`~repro.simnet.waves.DeliveryWave`, whose
        ``delivery_times`` gives each message's arrival — or, as an
        item wave, the
        :class:`~repro.simnet.waves.ItemWave`, whose ``delivery_times``
        gives each message's first frame arrival (NaN if the payload
        never landed) and ``attempts`` its transmissions.
        """
        from .waves import send_batch as _send_batch

        return _send_batch(
            self, src_ids, dst_ids, size_bits=size_bits, kind=kind,
            at_times=at_times,
        )

    def alloc_context(
        self, src: int, dst: int, kind: str, size_bits: float = 0.0
    ) -> TraceContext:
        """Allocate the next causal span on the (src, dst, kind) channel.

        Emits the ``net.send`` event that anchors the span in the DAG
        and counts it in ``trace_spans_total``.  The parent is whatever
        context is active on this thread — the delivery or timer that
        caused this send — so chains root at the t=0 initiating sends.
        """
        key = (src, dst, kind)
        n = self._causal_seq.get(key, 0)
        self._causal_seq[key] = n + 1
        parent = _causal.current()
        ctx = TraceContext(
            trace_id=self.trace_id,
            span_id=_causal.make_span_id(src, dst, kind, n),
            parent_id=parent.span_id if parent is not None else None,
        )
        obs = _obs.OBS
        if obs.enabled:
            obs.emit("net.send", t_ms=self.sim.now, node=src, dst=dst,
                     kind=kind, bits=size_bits, **ctx.child_fields())
        return ctx

    def physical_send(
        self,
        src: int,
        dst: int,
        msg: Any,
        size_bits: float = 0.0,
        kind: str = "msg",
        ctx: Optional[TraceContext] = None,
    ) -> None:
        """One physical transmission attempt (no transport semantics):
        one timeline lookup gives the partition, loss rate and extra
        delay at now, and the frame lands ``latency + extra`` later."""
        if dst not in self._nodes:
            raise KeyError(f"unknown destination node {dst}")
        tl = self.fault_timeline
        span = None if tl is None else tl.span_at(self.sim.now)
        if not self._link_up(src, dst, span):
            self._drop(src, dst, kind, size_bits, "link_down", ctx=ctx)
            return
        rate = self.loss_rate if span is None else span.loss_rate
        if rate > 0.0 and self.rng.random() < rate:
            self._drop(src, dst, kind, size_bits, "loss", ctx=ctx)
            return
        delay = self.latency.sample(src, dst, self.rng)
        if span is not None:
            delay += span.extra_delay(src, dst)
        if self.bandwidth_bps is not None and size_bits > 0:
            transfer_ms = 1000.0 * size_bits / self.bandwidth_bps
            if self.serialize_uplink:
                start = max(self.sim.now, self._uplink_free.get(src, 0.0))
                self._uplink_free[src] = start + transfer_ms
                delay += (start - self.sim.now) + transfer_ms
            else:
                delay += transfer_ms

        def deliver() -> None:
            self.in_flight -= 1
            # The destination may have crashed while the message was in
            # flight; a real TCP stack would RST, we just drop.
            if not self.link_up(src, dst):
                self._drop(src, dst, kind, size_bits, "in_flight",
                           silent=True, ctx=ctx)
                return
            self.trace.record(
                MessageRecord(self.sim.now, src, dst, kind, size_bits, delivered=True)
            )
            obs = _obs.OBS
            if obs.enabled:
                if ctx is not None:
                    obs.emit("net.deliver", t_ms=self.sim.now, node=src,
                             dst=dst, kind=kind, bits=size_bits,
                             **ctx.child_fields())
                else:
                    obs.emit("net.deliver", t_ms=self.sim.now, node=src,
                             dst=dst, kind=kind, bits=size_bits)
            if ctx is not None:
                # Run the handler with this span as the causal parent:
                # whatever it sends in response is a child of this hop.
                with _causal.use(ctx):
                    self.deliver_to_node(src, dst, msg)
            else:
                self.deliver_to_node(src, dst, msg)

        self.in_flight += 1
        if self.in_flight > self.peak_in_flight:
            self.peak_in_flight = self.in_flight
        self.sim.schedule(delay, deliver)

    def deliver_to_node(self, src: int, dst: int, msg: Any) -> None:
        """Hand an arrived message to its destination actor.

        Transport frames are unwrapped first: data frames are ACKed and
        de-duplicated by the reliable channel, ACKs terminate pending
        retransmissions.  Plain messages go straight to the node.
        """
        if self.reliable is not None:
            if isinstance(msg, DataFrame):
                self.reliable.on_frame(src, dst, msg)
                return
            if isinstance(msg, AckFrame):
                self.reliable.on_ack(src, dst, msg)
                return
        self._nodes[dst].deliver(src, msg)

    def _drop(self, src: int, dst: int, kind: str, size_bits: float,
              reason: str, silent: bool = False,
              ctx: Optional[TraceContext] = None) -> None:
        """Account (and, under obs, report) a dropped message.

        ``silent`` marks the in-flight case: the seed recorded no
        undelivered MessageRecord when a destination crashed mid-flight,
        and keeping that exact behaviour preserves record-level
        compatibility; the obs event still fires.
        """
        if not silent:
            self.trace.record(
                MessageRecord(self.sim.now, src, dst, kind, size_bits,
                              delivered=False)
            )
        obs = _obs.OBS
        if obs.enabled:
            if ctx is not None:
                obs.emit("net.drop", t_ms=self.sim.now, node=src, dst=dst,
                         kind=kind, bits=size_bits, reason=reason,
                         **ctx.child_fields())
            else:
                obs.emit("net.drop", t_ms=self.sim.now, node=src, dst=dst,
                         kind=kind, bits=size_bits, reason=reason)
