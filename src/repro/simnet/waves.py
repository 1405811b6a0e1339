"""Vectorized delivery waves: one heap entry per message *batch*.

The scalar :meth:`~repro.simnet.network.Network.send` path pays one heap
push, one heap pop, one callback frame, one latency draw and one accounting
record **per message** — fine at 10^3 peers, prohibitive at 10^5.  An
X-layer wire round is almost entirely same-phase traffic, though: every
share of a layer departs together, so its delivery schedule can be
computed in a handful of numpy passes and replayed from a *single* heap
entry.

:func:`send_batch` (surfaced as ``Network.send_batch``) does exactly
that:

- latency draws are one whole-array op (``LatencyModel.sample_batch``);
- messages get a **contiguous reserved seq block**
  (:meth:`EventQueue.reserve`), message ``i`` taking ``seq0 + i`` — the
  very numbers per-message ``send`` calls would have consumed — so the
  global ``(time, seq)`` delivery order is that of one heap entry per
  message;
- one :class:`DeliveryWave` object re-pushes itself through the heap: at
  each firing it delivers the maximal *run* of its pending messages
  whose ``(time, seq)`` keys precede the next live heap entry, then
  re-queues at its next pending key.  Foreign events (other waves,
  chaos fault events, timers armed by message handlers) therefore
  interleave exactly where per-message scheduling would have put them.
  Finding the run's end (:func:`_cut`) is three binary searches,
  however many messages share the head's instant.

Reliable transport and fault timelines (second half of this module)
precompute a schedule of typed *items* per batch.  Item batches are not
heap participants at all: they run no handler, so a network's pending
batches share one :class:`_ItemLedger` entry,
which at its first firing reduces each batch's items to per-instant
entries and merges those, and each firing replays everything up to the
next *foreign* heap head.  Firings are the cuts by events that can
observe the network — one for a whole X-layer round — not (instant,
wave) pairs, let alone items.

Faults come from an installed :class:`~repro.chaos.timeline.FaultTimeline`
and nowhere else: ``send_batch`` raises ``ValueError`` on live
``crash()`` / ``set_partition`` state, an armed schedule, a bandwidth or
loss without ``transport="reliable"``, so a fire-and-forget wave runs on
a fault-free, lossless network and drops nothing.

Accounting: a wave records one aggregate
:class:`~repro.simnet.trace.WaveRecord` and one ``net.*`` obs event
(with a ``count`` field) per category per run — per batch too, on the
ledger — and totals match per-message records exactly.  Waves carry no
actor payloads: peers are modelled by their ids alone.

Determinism contract (see ``docs/performance.md``): wave == per-item
replay (``tests/simnet/per_item.py``, which swaps each wave class's
``_launch`` for one heap entry per message or item at its reserved key).
The RNG is consumed before launch — a fire-and-forget wave draws one
latency per message in enumeration order.  ``send_batch`` differs from
a loop of scalar ``send`` calls only in RNG interleaving (an item wave
draws per attempt epoch, ``send`` per message) and in skipping
per-message causal span allocation.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..obs import runtime as _obs
from .events import Event
from .reliable import ACK_BITS, FRAME_HEADER_BITS, ExhaustedSend
from .trace import MessageRecord, WaveRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .network import Network

def _cut(times: np.ndarray, seqs: np.ndarray, i: int, head) -> int:
    """Largest ``j >= i`` such that entries ``i..j-1`` all precede ``head``.

    ``times`` ascends and ``seqs`` never descends within an equal-time
    run (both wave classes and the ledger's batch column guarantee it),
    so the cut is three binary searches however many entries tie with
    the head's time.  Counting from ``i`` matters when the tie block
    started before it: a handler that schedules a zero-delay event
    mid-block leaves the block's tail ahead of that event.
    """
    if head is None:
        return len(times)
    j = max(i, int(times.searchsorted(head.time, "left")))
    end = int(times.searchsorted(head.time, "right"))
    if end > j:
        j += int(seqs[j:end].searchsorted(head.seq, "left"))
    return j


class DeliveryWave:
    """One batch of same-kind messages moving through the simulated wire.

    Returned by ``Network.send_batch``; ``delivery_times[i]`` is the
    absolute arrival time of message ``i``.  The object is also the live
    heap participant that replays the deliveries.
    """

    __slots__ = (
        "net", "kind", "size_bits", "delivery_times", "count", "dropped",
        "_src", "_dst", "_times", "_seqs", "_order", "_pos",
    )

    def __init__(
        self,
        net: "Network",
        kind: str,
        size_bits: float,
        delivery_times: np.ndarray,
    ) -> None:
        self.net = net
        self.kind = kind
        self.size_bits = size_bits
        self.delivery_times = delivery_times
        self.count = len(delivery_times)
        self.dropped = 0
        self._pos = 0

    @property
    def done(self) -> bool:
        """Whether every message has been delivered."""
        return self._pos >= self.count

    # -------------------------------------------------------------- firing
    def _launch(self) -> None:
        """Queue the replay at the first pending ``(time, seq)`` key."""
        self.net.sim._queue.push_at(float(self._times[0]),
                                    int(self._seqs[0]), self._fire)

    def _fire(self) -> None:
        net = self.net
        queue = net.sim._queue
        times, seqs = self._times, self._seqs
        n = len(times)
        i = self._pos
        while i < n:
            j = _cut(times, seqs, i, queue.peek_event())
            if j > i:
                # A bulk run pushes nothing, so the head is unchanged and
                # the next cut is ``j`` itself: re-queue there directly.
                self._bulk_run(i, j)
                i = j
                if i == n:
                    break
            self._pos = i
            queue.push_at(float(times[i]), int(seqs[i]), self._fire)
            return
        self._pos = n

    def _bulk_run(self, i: int, j: int) -> None:
        """Deliver messages ``i..j-1`` as one aggregate accounting step."""
        net = self.net
        t_end = float(self._times[j - 1])
        net.sim.advance_to(t_end)
        count = j - i
        bits = count * self.size_bits
        net.in_flight -= count
        net.trace.record(
            WaveRecord(t_end, self.kind, count, bits, delivered=True)
        )
        obs = _obs.OBS
        if obs.enabled:
            obs.emit("net.deliver", t_ms=t_end, kind=self.kind, bits=bits,
                     count=count)

    def _deliver_one(self, i: int) -> None:
        """Deliver message ``i`` alone: the step bulk runs must add up to
        (one heap entry each under ``tests/simnet/per_item.py``)."""
        net = self.net
        t = float(self._times[i])
        net.sim.advance_to(t)
        net.in_flight -= 1
        idx = self._order[i]
        src = int(self._src[idx])
        dst = int(self._dst[idx])
        net.trace.record(
            MessageRecord(t, src, dst, self.kind, self.size_bits,
                          delivered=True)
        )
        obs = _obs.OBS
        if obs.enabled:
            obs.emit("net.deliver", t_ms=t, node=src, dst=dst,
                     kind=self.kind, bits=self.size_bits)


def send_batch(
    net: "Network",
    src_ids: np.ndarray,
    dst_ids: np.ndarray,
    size_bits: float = 0.0,
    kind: str = "msg",
    at_times: Optional[np.ndarray] = None,
) -> DeliveryWave:
    """Issue one delivery wave (the body of ``Network.send_batch``)."""
    src = np.ascontiguousarray(src_ids, dtype=np.int64)
    dst = np.ascontiguousarray(dst_ids, dtype=np.int64)
    if src.shape != dst.shape or src.ndim != 1:
        raise ValueError("src_ids and dst_ids must be equal-length 1-D arrays")
    m = len(src)
    sim = net.sim
    if at_times is None:
        dep = np.full(m, sim.now, dtype=np.float64)
    else:
        dep = np.asarray(at_times, dtype=np.float64)
        if dep.shape != src.shape:
            raise ValueError("at_times must match src_ids in length")
        # Scalar scheduling clamps negative delays to "now"; same here,
        # copying only when some departure precedes it.
        if m and dep.min() < sim.now:
            dep = np.maximum(dep, sim.now)

    reason = (
        "live crash or partition state" if not net._fault_free
        else "an armed fault schedule" if net.fault_oracle is not None
        else "a bandwidth" if net.bandwidth_bps is not None
        else "loss without the reliable transport"
        if net.loss_rate > 0.0 and net.reliable is None
        else None
    )
    if reason is not None:
        raise ValueError(
            f"send_batch cannot model {reason}: a wave reads its faults "
            "from an installed FaultTimeline only"
        )
    if net.reliable is not None or net.fault_timeline is not None:
        # Reliable transport and/or time-varying faults: the per-message
        # fate is a whole attempt/ACK state machine, precomputed as a
        # flat *item* schedule and replayed from it.
        return _send_batch_items(net, src, dst, dep, size_bits, kind)

    # Fault-free and lossless: every message is delivered, after one
    # batch latency draw in enumeration order.
    times = dep + net.latency.sample_batch(src, dst, net.rng)
    wave = DeliveryWave(net, kind, size_bits, times)
    obs = _obs.OBS
    if obs.enabled:
        obs.emit("net.wave", t_ms=sim.now, kind=kind, count=m,
                 bits=m * size_bits, dropped=0)
    net.in_flight += m
    if net.in_flight > net.peak_in_flight:
        net.peak_in_flight = net.in_flight
    if m == 0:
        return wave

    seq0 = sim._queue.reserve(m)
    wave._src, wave._dst = src, dst
    # Replay order is a stable sort on time, which is the identity on
    # times already non-decreasing: such a wave keeps its arrays.
    if (times[1:] >= times[:-1]).all():
        wave._order, wave._times = range(m), times
        wave._seqs = np.arange(seq0, seq0 + m, dtype=np.int64)
    else:
        wave._order = order = np.argsort(times, kind="stable")
        wave._times = times[order]
        wave._seqs = seq0 + order.astype(np.int64, copy=False)
    wave._launch()
    return wave


# --------------------------------------------------------------------------
# Item waves: lossy + reliable traffic as a precomputed item schedule
# --------------------------------------------------------------------------
#
# With ``transport="reliable"`` (or a chaos fault timeline) a message is
# no longer one delivery: it is a stop-and-wait state machine of
# attempts, drops, ACKs and timers.  ``_send_batch_items`` unrolls that
# machine for the whole batch in one numpy pass per backoff epoch,
# producing *items* — atomic accounting steps (a departure, a frame
# arrival, an ACK arrival, a drop, a retransmission, a budget
# exhaustion), each with an absolute time — in *blocks*: one
# ``(times, type, message ids, first-arrival flags)`` tuple per emission,
# in creation order, with a scalar type except for the interleaved
# ACKed/ACK-lost arrival block (an int8 per item) and flags on ACKed
# arrival blocks only.  Item ``p`` of the batch's stable time order takes
# seq ``seq0 + p`` of one reserved block.  The network's ``_ItemLedger``
# reduces the blocks to per-instant entries as the batch is issued, so
# no per-item column outlives ``send_batch``, and replays them in bulk
# runs — the ``(time, seq)`` order, counters and trace totals of the
# per-item replay (``tests/simnet/per_item.py``, which builds its
# replay-order columns from the same blocks).
#
# Fate/RNG contract, fixed before replay: per epoch, in message-
# enumeration order — (1) one Bernoulli uniform per link-up frame under
# a positive loss rate, (2) one ``sample_batch`` latency draw per flying
# frame, (3) one uniform per ACK issued under a positive loss rate,
# (4) one ``sample_batch`` draw per flying ACK.  Link-down attempts
# consume no randomness (matching ``physical_send``).
#
# Link state, loss windows, delay spikes and crashed-sender holds
# (``_apply_holds``) come from the installed ``FaultTimeline`` alone;
# without one every link is up and the loss rate is the network's.

_T_RETRANS = 0     # retransmission fires (attempt k >= 2 leaves the sender)
_T_LINKDOWN = 1    # frame dropped at send: link down / endpoint crashed
_T_LOST = 2        # frame dropped at send: random loss
_T_DEPART = 3      # frame physically departs (in-flight gauge +1)
_T_FRAME_MID = 4   # frame dropped at arrival: link died mid-flight
_T_ARR_ACKUP = 5   # frame arrives, ACK issued and flying
_T_ARR_ACKLOST = 6 # frame arrives, ACK issued but lost at send
_T_ACK_MID = 7     # ACK dropped at arrival: link died mid-flight
_T_ACK_ARR = 8     # ACK arrives back at the sender
_T_ARR_PLAIN = 9   # fire-and-forget frame arrives (timeline mode)
_T_EXHAUST = 10    # retransmit budget exhausted without an ACK

_N_TYPES = 11
_FIRST = _N_TYPES  # ledger entry kind: first ACKed frame arrivals
_KINDS = _N_TYPES + 1

#: net in-flight gauge delta per item type (per entry kind, in the
#: ledger).  ``_T_ARR_ACKUP`` is a wash (frame lands -1, ACK departs +1
#: at the same instant — the dip never raises the peak), so it
#: contributes 0.
_IF_DELTA = np.zeros(_KINDS, dtype=np.int8)
_IF_DELTA[_T_DEPART] = 1
for _t in (_T_FRAME_MID, _T_ARR_ACKLOST, _T_ACK_MID, _T_ACK_ARR,
           _T_ARR_PLAIN):
    _IF_DELTA[_t] = -1
del _t

_ARR_TYPES = (_T_ARR_ACKUP, _T_ARR_ACKLOST, _T_ARR_PLAIN)

#: cap on probes per crashed-sender hold chunk, over all held frames.
_HOLD_CHUNK = 1 << 20


def _apply_holds(
    tl, srcs: np.ndarray, times: np.ndarray, rto_hold: float
) -> tuple[np.ndarray, np.ndarray]:
    """Crashed-sender RTO holds: shift probe times past recovery.

    At an RTO the scalar transport first checks the *sender*: crashed
    with a recovery pending, the frame is held (attempts unburned) and
    re-probed one backoff period later; crashed for good, it is silently
    abandoned.  Returns the (possibly shifted) fire times and the
    abandoned mask.

    The probes of the frames still held go in chunks that double in
    length.  ``np.add.accumulate`` adds ``rto_hold`` one step at a time,
    so probe ``j`` has the bits of ``j`` repeated ``+=``, and a hold of
    ``P`` probes costs O(log P) timeline queries.  "A recovery at or
    after ``t``" only turns false as ``t`` grows, so checking a frame's
    last crashed probe decides every earlier one.
    """
    times = times.astype(np.float64)
    abandoned = np.zeros(len(times), dtype=bool)
    held = np.flatnonzero(tl.crashed_at(srcs, times))
    last = times[held]  # each held frame's latest probe, crashed
    ok = tl.recovery_at_or_after(srcs[held], last)
    abandoned[held[~ok]] = True
    held, last = held[ok], last[ok]
    k = 1
    while held.size:
        steps = np.full((len(held), k + 1), rto_hold)
        steps[:, 0] = last
        probes = np.add.accumulate(steps, axis=1)[:, 1:]
        up = ~tl.crashed_at(np.repeat(srcs[held], k),
                            probes.reshape(-1)).reshape(len(held), k)
        rows = np.arange(len(held))
        first = up.argmax(axis=1)
        out = up[rows, first]  # released inside this chunk
        # The last crashed probe: just before release, else the chunk's end.
        lc = np.where(out, np.where(first > 0, probes[rows, first - 1], last),
                      probes[:, -1])
        ok = tl.recovery_at_or_after(srcs[held], lc)
        abandoned[held[~ok]] = True
        done = out & ok
        times[held[done]] = probes[rows[done], first[done]]
        keep = ~out & ok
        held, last = held[keep], lc[keep]
        k = min(2 * k, max(1, _HOLD_CHUNK // max(len(held), 1)))
    return times, abandoned


def _find(idx: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Positions in ascending ``idx`` of those of ascending ``ids`` it holds."""
    if not len(idx) or not len(ids):
        return np.empty(0, dtype=np.intp)
    pos = np.minimum(idx.searchsorted(ids), len(idx) - 1)
    return pos[idx.take(pos) == ids]


def _without(pos: np.ndarray, n: int) -> np.ndarray:
    """The positions ``0..n-1`` not in ``pos``."""
    keep = np.ones(n, dtype=bool)
    keep[pos] = False
    return np.flatnonzero(keep)


def _send_batch_items(
    net: "Network",
    src: np.ndarray,
    dst: np.ndarray,
    dep: np.ndarray,
    size_bits: float,
    kind: str,
) -> "ItemWave":
    """Compute and launch an item wave (reliable and/or timeline mode).

    The epoch loop carries its live cohort as ascending message indices
    ``idx`` and their attempt times ``t``.  Every mask over a cohort is
    split once with ``flatnonzero`` and each column gathered with
    ``take``; fault queries cover only the messages the script can
    reach.
    """
    sim = net.sim
    m = len(src)
    rel = net.reliable
    tl = net.fault_timeline
    if rel is not None:
        base_rto = rel.base_rto_ms
        backoff = rel.backoff
        max_att = rel.max_attempts
        frame_bits = size_bits + FRAME_HEADER_BITS
    else:
        base_rto = backoff = 0.0
        max_att = 1
        frame_bits = size_bits

    attempts = np.zeros(m, dtype=np.int64)
    first_arr = np.full(m, np.nan, dtype=np.float64)
    min_ack = np.full(m, np.inf, dtype=np.float64)

    # Fault reach: the messages whose link can ever be down or whose
    # sender can be held.  A script only touches the links of the nodes
    # it names, so each query asks it about those messages alone; every
    # other link is up and every other sender is never held.  Without a
    # timeline nothing is reached.
    if tl is not None:
        reach = np.flatnonzero(tl.can_go_down(src) | tl.can_go_down(dst))
    else:
        reach = np.empty(0, dtype=np.intp)
    everyone = len(reach) == m

    def reached(idx, t):
        """Cohort ``idx``'s reached messages: positions (None: all), ids
        and times ``t``."""
        if everyone:
            return None, idx, t
        pos = _find(idx, reach)
        return pos, idx.take(pos), t.take(pos)

    def cut(idx, t, gone):
        """Cohort ``idx`` (times ``t``) without the positions ``gone``."""
        if not len(gone):
            return idx, t
        kept = _without(gone, len(idx))
        return idx.take(kept), t.take(kept)

    def link_down(idx, t, back=False):
        """Positions in cohort ``idx`` whose link (the ACK's when
        ``back``) is down at ``t``."""
        pos, ids, t_r = reached(idx, t)
        if not len(ids):
            return ids
        s, d = src.take(ids), dst.take(ids)
        up = tl.link_up_at(*((d, s) if back else (s, d)), t_r)
        down = np.flatnonzero(~up)
        return down if pos is None else pos.take(down)

    def hold(idx, t, rto):
        """The cohort left after crashed-sender holds at RTO times ``t``,
        which take held frames' new times in place."""
        pos, ids, t_r = reached(idx, t)
        if not len(ids):
            return idx, t
        t_r, gone = _apply_holds(tl, src.take(ids), t_r, rto)
        if pos is None:
            t = t_r
        else:
            t[pos] = t_r
        gone = np.flatnonzero(gone)
        return cut(idx, t, gone if pos is None else pos.take(gone))

    if tl is None:
        lossy = all_lossy = net.loss_rate > 0.0
    else:
        lossy, all_lossy = tl.max_loss_rate > 0.0, tl.min_loss_rate > 0.0

    def loss_mask(t_send):
        """Lost-at-send flags: one uniform per message under a positive
        loss rate, in cohort order; None when nothing can be lost."""
        n = len(t_send)
        if not (n and lossy):
            return None
        if tl is None:
            return net.rng.random(n) < net.loss_rate
        rates = tl.loss_rate_at(t_send)
        if all_lossy:
            return net.rng.random(n) < rates
        draw = np.flatnonzero(rates > 0.0)
        if not len(draw):
            return None
        lost = np.zeros(n, dtype=bool)
        lost[draw] = net.rng.random(len(draw)) < rates.take(draw)
        return lost

    # Item blocks in creation order, as emitted; ``arrivals`` lists the
    # ACKed arrival blocks (position, epoch), which get their flags once
    # every epoch has run.
    blocks = []
    arrivals = []
    #: epoch of each message's first frame arrival so far (0: none).
    first_k = np.zeros(m, dtype=np.int32)

    def emit(t, typ, idx):
        if len(idx):
            blocks.append((t, typ, idx, None))

    def drop(idx, t, gone, typ):
        """Emit cohort positions ``gone`` as ``typ``; return the rest."""
        if len(gone):
            emit(t.take(gone), typ, idx.take(gone))
        return cut(idx, t, gone)

    idx, t = np.arange(m), dep
    for k in range(1, max_att + 1):
        if not len(idx):
            break
        attempts[idx] = k
        if k >= 2:
            emit(t, _T_RETRANS, idx)
        go, t_go = drop(idx, t, link_down(idx, t), _T_LINKDOWN)
        lost = loss_mask(t_go)
        if lost is not None:
            go, t_go = drop(go, t_go, np.flatnonzero(lost), _T_LOST)
        s_go, d_go = src.take(go), dst.take(go)
        lat = net.latency.sample_batch(s_go, d_go, net.rng)
        if tl is not None:
            lat = lat + tl.extra_delay_at(s_go, d_go, t_go)
        t_arr = t_go + lat
        emit(t_go, _T_DEPART, go)
        if tl is not None:
            go, t_arr = drop(go, t_arr, link_down(go, t_arr), _T_FRAME_MID)
        # The first arrival per message in global (time, creation) order
        # carries the payload, later ones are transport duplicates; the
        # strict ``<`` keeps the earlier epoch on a time tie, as replay
        # order (creation order within an instant) does.  An epoch emits
        # one arrival block.
        if k == 1:
            first_k[go] = 1
            first_arr[go] = t_arr
        else:
            prev = first_arr.take(go)
            first_k[go.take(np.flatnonzero(~(t_arr >= prev)))] = k
            first_arr[go] = np.fmin(prev, t_arr)
        if rel is None:
            emit(t_arr, _T_ARR_PLAIN, go)
            continue
        # The destination ACKs every arrived frame (duplicates included).
        # Link symmetry means the ACK's link is up at the frame's arrival
        # instant, so the only issue-time ACK fate is random loss.  One
        # interleaved emission in message-enumeration order: a category
        # split (all ACKLOST, then all ACKUP) would reorder same-instant
        # arrivals at a shared destination away from the actor loop's
        # (time, seq) delivery order.
        ack_lost = loss_mask(t_arr)
        if len(go):
            arrivals.append((len(blocks), k))
        if ack_lost is None:
            emit(t_arr, _T_ARR_ACKUP, go)
            af, t_af = go, t_arr
        else:
            emit(t_arr, ack_lost.view(np.int8) + np.int8(_T_ARR_ACKUP), go)
            kept = np.flatnonzero(~ack_lost)
            af, t_af = go.take(kept), t_arr.take(kept)
        s_af, d_af = src.take(af), dst.take(af)
        alat = net.latency.sample_batch(d_af, s_af, net.rng)
        if tl is not None:
            alat = alat + tl.extra_delay_at(d_af, s_af, t_af)
        t_ack = t_af + alat
        if tl is not None:
            af, t_ack = drop(af, t_ack, link_down(af, t_ack, back=True),
                             _T_ACK_MID)
        emit(t_ack, _T_ACK_ARR, af)
        min_ack[af] = t_ack if k == 1 else np.minimum(min_ack.take(af), t_ack)
        if k == max_att:
            break
        # Stopping rule: the RTO timer set at t_k fires at T_next; an ACK
        # at exactly T_next loses the tie (the timer's seq was assigned
        # at t_k, the ACK's at its later arrival), so ``>=`` continues —
        # one extra epoch whose own timer then never fires.
        rto_k = base_rto * backoff ** (k - 1)
        t_next = t + rto_k
        cont = np.flatnonzero(min_ack.take(idx) >= t_next)
        idx, t = hold(idx.take(cont), t_next.take(cont), rto_k)

    if rel is not None and len(idx):
        # The last epoch's cohort (attempt ``max_att``) exhausts at its
        # final RTO unless an ACK beat it or its sender is held off.
        rto_f = base_rto * backoff ** (max_att - 1)
        t_fin = t + rto_f
        ex = np.flatnonzero(min_ack.take(idx) >= t_fin)
        idx, t_fin = hold(idx.take(ex), t_fin.take(ex), rto_f)
        emit(t_fin, _T_EXHAUST, idx)

    # ---------------------------------------------------------- assembly
    # A message's arrival is its first iff no other epoch's came sooner.
    for b, k in arrivals:
        t_b, typ, ids, _ = blocks[b]
        blocks[b] = t_b, typ, ids, first_k.take(ids) == k
    # Replay order is a stable sort on time: creation order (= epoch
    # order, categories in scalar decision order within an epoch) breaks
    # ties, and the contiguous reserved seq block makes that order the
    # global one.  Nothing here orders items: the ledger reduces each
    # block to per-instant entries and orders those.
    n_items = sum(len(b[2]) for b in blocks)
    wave = ItemWave(net, kind, size_bits, frame_bits, first_arr,
                    ~np.isnan(first_arr), attempts, src, dst, n_items)
    obs = _obs.OBS
    if obs.enabled:
        obs.emit("net.wave", t_ms=sim.now, kind=kind, count=m,
                 bits=m * size_bits, dropped=0,
                 transport=net.transport_mode)
    if n_items:
        wave._launch(sim._queue.reserve(n_items), blocks)
    return wave


class ItemWave:
    """A reliable / timeline-mode delivery wave and its replay state.

    Mirrors :class:`DeliveryWave`'s result surface (``delivery_times``
    is each message's *first* successful frame arrival, NaN if the
    payload never landed; ``count``/``dropped``/``done``) and adds
    ``attempts`` (transmissions per message).  Unlike the fire-and-forget
    wave, the in-flight gauge moves at item times (departures/arrivals),
    not at issue.  The wave holds no items: ``_launch`` hands its blocks
    to the network's :class:`_ItemLedger`, which keeps per-instant
    entries only, and the wave counts the items replayed so far.
    """

    __slots__ = (
        "net", "kind", "size_bits", "frame_bits",
        "delivery_times", "delivered", "count", "dropped", "attempts",
        "_src", "_dst", "_n_items", "_sent", "_pos",
    )

    def __init__(self, net, kind, size_bits, frame_bits,
                 delivery_times, delivered, attempts, src, dst, n_items):
        self.net = net
        self.kind = kind
        self.size_bits = size_bits
        self.frame_bits = frame_bits
        self.delivery_times = delivery_times
        self.delivered = delivered
        self.count = int(delivered.sum())
        self.dropped = len(delivered) - self.count
        self.attempts = attempts
        self._src = src
        self._dst = dst
        self._n_items = n_items
        self._sent = None     # per-message transmissions replayed so far
        self._pos = 0         # items replayed so far

    @property
    def done(self) -> bool:
        """Whether every item of the wave has been replayed."""
        return self._pos >= self._n_items

    # ------------------------------------------------------------- firing
    def _launch(self, seq0: int, blocks: list) -> None:
        """Queue the replay of the items of ``blocks`` at seqs
        ``seq0...`` on the network's ledger."""
        net = self.net
        ledger = net._ledger
        # None pending — or ``sim.clear()`` took its entry off the heap.
        if ledger is None or ledger._event._queue is None:
            ledger = net._ledger = _ItemLedger(net)
        ledger.add(self, seq0, blocks)

    # -------------------------------------------------- per-item semantics
    def _apply_item(self, t: float, typ: int, i: int, first: bool) -> None:
        """Replay one item of type ``typ`` at ``t`` for message ``i``
        (``first``: its first frame arrival): the per-item semantics that
        bulk runs must add up to (one heap entry each under
        ``tests/simnet/per_item.py``)."""
        net = self.net
        rel = net.reliable
        net.sim.advance_to(t)
        src = int(self._src[i])
        dst = int(self._dst[i])
        obs = _obs.OBS
        if typ == _T_DEPART:
            net.in_flight += 1
            if net.in_flight > net.peak_in_flight:
                net.peak_in_flight = net.in_flight
        elif typ == _T_RETRANS:
            rel.retransmits += 1
            # Per-item replay sees a message's retransmissions in attempt
            # order (bulk runs never come here), so a counter recovers
            # the attempt number the obs event reports.
            if self._sent is None:
                self._sent = np.ones(len(self.attempts), dtype=np.int32)
            self._sent[i] += 1
            if obs.enabled:
                obs.emit("net.retransmit", t_ms=t, node=src, dst=dst,
                         kind=self.kind, attempt=int(self._sent[i]))
        elif typ == _T_LINKDOWN:
            net._drop(src, dst, self.kind, self.frame_bits, "link_down")
        elif typ == _T_LOST:
            net._drop(src, dst, self.kind, self.frame_bits, "loss")
        elif typ == _T_FRAME_MID:
            net.in_flight -= 1
            net._drop(src, dst, self.kind, self.frame_bits, "in_flight",
                      silent=True)
        elif typ in (_T_ARR_ACKUP, _T_ARR_ACKLOST, _T_ARR_PLAIN):
            if typ != _T_ARR_ACKUP:
                net.in_flight -= 1
            net.trace.record(
                MessageRecord(t, src, dst, self.kind, self.frame_bits,
                              delivered=True)
            )
            if obs.enabled:
                obs.emit("net.deliver", t_ms=t, node=src, dst=dst,
                         kind=self.kind, bits=self.frame_bits)
            if typ != _T_ARR_PLAIN:
                rel.acks_sent += 1
                if typ == _T_ARR_ACKLOST:
                    net._drop(dst, src, "net.ack", ACK_BITS, "loss")
            if not first and typ != _T_ARR_PLAIN:
                rel.duplicates_suppressed += 1
        elif typ == _T_ACK_MID:
            net.in_flight -= 1
            net._drop(dst, src, "net.ack", ACK_BITS, "in_flight",
                      silent=True)
        elif typ == _T_ACK_ARR:
            net.in_flight -= 1
            net.trace.record(
                MessageRecord(t, dst, src, "net.ack", ACK_BITS,
                              delivered=True)
            )
            if obs.enabled:
                obs.emit("net.deliver", t_ms=t, node=dst, dst=src,
                         kind="net.ack", bits=ACK_BITS)
        else:  # _T_EXHAUST
            self._exhaust(t, i)
        self._pos += 1

    def _exhaust(self, t: float, i: int) -> None:
        """Message ``i`` spent its retransmit budget without an ACK."""
        src, dst = int(self._src[i]), int(self._dst[i])
        # NaN (the payload never landed) compares False.
        delivered = bool(self.delivery_times[i] <= t)
        self.net.reliable.exhausted.append(
            ExhaustedSend(src, dst, self.kind, delivered=delivered)
        )
        obs = _obs.OBS
        if obs.enabled:
            obs.emit("net.retransmit_exhausted", t_ms=t, node=src,
                     dst=dst, kind=self.kind,
                     attempts=int(self.attempts[i]), delivered=delivered)


def _runs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``x`` ascending, and how often each occurs.

    One sort at most: none when ``x`` is already in order, as a block
    holding a single instant is.  The values are a copy, never a view
    that would keep ``x`` alive.
    """
    n = len(x)
    if n > 1 and not (x[1:] >= x[:-1]).all():
        x = np.sort(x)
    elif not n or x[0] == x[-1]:
        return x[:1].copy(), np.full(min(n, 1), n, dtype=np.intp)
    last = np.append(np.flatnonzero(x[1:] != x[:-1]), n - 1)
    counts = np.empty(len(last), dtype=np.intp)
    counts[0] = last[0] + 1
    np.subtract(last[1:], last[:-1], out=counts[1:])
    return x.take(last), counts


class _ItemLedger:
    """Merged replay of one network's item batches.

    An item batch runs no handler, so only *foreign* events — timers,
    fault callbacks, delivery waves, a later ledger — can observe
    where its replay stands.  The batches issued on a network before the
    first of them is due therefore share one heap entry, at their
    earliest pending ``(time, seq)`` (a batch due before the pending
    entry adds its own; the replay meets the older one at its batch's
    first key and resumes from it).

    :meth:`add` reduces a batch as it is issued: each emitted block of
    one item type (the interleaved ACKed/ACK-lost arrivals count as one)
    shrinks to *entries*, one ``(time, kind, count)`` per distinct
    instant, plus, for ACKed arrivals, one of kind ``_FIRST`` per instant
    counting first-arrival flags.  The first firing merges: one stable
    time sort of the entries, concatenated in (batch, block) order, puts
    them in replay order, and a *row* is a run of equal ``(time, batch)``
    entries: the items of one seq block at one instant, which no foreign
    key can split.  Every block is sign-homogeneous in ``_IF_DELTA``
    (all +1 or all <= 0), so inside an instant the gauge peaks at the end
    of an entry.  Every firing replays the maximal run of rows up to the
    next heap head in O(entries) numpy work and re-queues at the next
    row's own key.  A batch issued after the merge opens the next ledger.
    """

    def __init__(self, net: "Network") -> None:
        self.net = net
        self.waves: list[ItemWave] = []  # batches, in issue order
        self.seq0: list[int] = []        # their reserved block starts
        self._event = None    # the earliest heap entry, until the merge
        self._own = set()     # keys ``add`` queued, fired or not
        self._entries = []    # per batch: (time, key, count) columns
        self._ex = []         # exhaustions: (times, batch, messages)
        self._row_t = None    # per row: its time, then batch and bounds
        self._pos = 0

    def add(self, wave: ItemWave, seq0: int, blocks: list) -> None:
        """Queue batch ``wave`` (items at seqs ``seq0...``) as the entries
        of its ``blocks``, with ``key = batch * _KINDS + kind``; its
        exhaustions go to ``_ex`` in creation order."""
        w = len(self.waves)
        self.waves.append(wave)
        self.seq0.append(seq0)
        ts, kinds, ns = [], [], []
        for t, typ, idx, first in blocks:
            u, n = _runs(t)
            if first is not None:
                if isinstance(typ, np.ndarray):
                    # ACKed = all arrivals less the ACK-lost ones per
                    # instant (a subset's instants are among the block's).
                    ul, nl = _runs(t[typ == _T_ARR_ACKLOST])
                    n_up = n.copy()
                    n_up[u.searchsorted(ul)] -= nl
                    up = np.flatnonzero(n_up)
                    ts += (u.take(up), ul)
                    ns += (n_up.take(up), nl)
                    kinds += (_T_ARR_ACKUP, _T_ARR_ACKLOST)
                else:
                    ts.append(u)
                    ns.append(n)
                    kinds.append(typ)
                # The first arrivals are all of them unless a retransmit
                # epoch's.
                if not first.all():
                    u, n = _runs(t[first])
                typ = _FIRST
            elif typ == _T_EXHAUST:
                self._ex.append((t, np.full(len(t), w), idx))
            ts.append(u)
            ns.append(n)
            kinds.append(typ)
        t = np.concatenate(ts)
        self._entries.append((
            t, np.repeat(np.array(kinds, dtype=np.int32) + w * _KINDS,
                         [len(u) for u in ts]),
            np.concatenate(ns, dtype=np.int32)))
        # The batch's earliest item (a departure: every message's first
        # item sits at its departure time) holds seq ``seq0``, above every
        # earlier batch's, so only an earlier time precedes the pending
        # entry.
        t0 = float(t.min())
        if self._event is None or t0 < self._event.time:
            self._event = self.net.sim._queue.push_at(t0, seq0, self._fire)
            self._own.add((t0, seq0))

    def _merge(self) -> None:
        self.net._ledger = self._event = None
        if self._ex:
            # Exhaustions replay one by one, in (time, batch, creation)
            # order: a run's are the next ones in this list.
            ex = [np.concatenate(col) for col in zip(*self._ex)]
            order = np.argsort(ex[0], kind="stable")
            self._ex = list(zip(*(col[order].tolist() for col in ex)))
        # One column at a time, the batches' parts released as merged.
        t, key, n = zip(*self._entries)
        del self._entries
        t = np.concatenate(t)
        order = np.argsort(t, kind="stable")
        self._t = t = t[order]
        self._n = np.concatenate(n)[order]
        del n
        key = np.concatenate(key)[order]
        del order
        w = key // _KINDS
        self._bounds = np.flatnonzero(np.r_[True, (t[1:] != t[:-1])
                                            | (w[1:] != w[:-1]), True])
        self._row_t, self._row_w = t[self._bounds[:-1]], w[self._bounds[:-1]]
        del w
        # Intp keys index the per-key tables below without a copy.
        self._key = key = key.astype(np.intp)
        # In-flight gauge after each entry, relative to the ledger's
        # start.  Every block is all +1 or all <= 0, so inside an instant
        # the gauge peaks at an entry's end: a run's peak is the maximum
        # over its entries.
        self._gauge = np.zeros(len(t) + 1, dtype=np.int32)
        delta = np.tile(_IF_DELTA, len(self.waves))  # per key
        np.multiply(delta[key], self._n, out=self._gauge[1:])
        np.cumsum(self._gauge, out=self._gauge)

    def _fire(self) -> None:
        if self._row_t is None:
            self._merge()
        queue = self.net.sim._queue
        head = queue.peek_event()
        if head is not None:
            # A foreign seq never falls inside a reserved block, so a
            # tied head has each batch wholly before or after it: cut on
            # the row's batch (ascending inside a tie) at the number of
            # blocks that start below the head's seq.
            head = Event(head.time, bisect_left(self.seq0, head.seq), None)
        # The entry fired at row ``_pos``'s own key, so the run is never
        # empty; a bulk run pushes nothing, so the head cannot move.
        a, b = self._pos, _cut(self._row_t, self._row_w, self._pos, head)
        self._bulk_run(a, b)
        self._pos = b
        if b < len(self._row_t):
            w = int(self._row_w[b])
            key = float(self._row_t[b]), self.seq0[w] + self.waves[w]._pos
            # An entry ``add`` left at a batch's first key is still queued.
            if key not in self._own:
                queue.push_at(*key, self._fire)

    # ------------------------------------------------------ bulk semantics
    def _bulk_run(self, a: int, b: int) -> None:
        """Replay rows ``a..b-1`` as aggregate accounting steps: gauge
        lookups and one ``add.at`` / ``maximum.at`` pass over the run's
        entries drive it all."""
        net = self.net
        rel = net.reliable
        ea, eb = int(self._bounds[a]), int(self._bounds[b])
        net.sim.advance_to(float(self._row_t[b - 1]))

        base = int(self._gauge[ea])
        peak = net.in_flight + int(self._gauge[ea + 1:eb + 1].max()) - base
        if peak > net.peak_in_flight:
            net.peak_in_flight = peak
        net.in_flight += int(self._gauge[eb]) - base

        key = self._key[ea:eb]
        counts = np.zeros((len(self.waves), _KINDS), dtype=np.int32)
        np.add.at(counts.reshape(-1), key, self._n[ea:eb])
        last = np.full(counts.shape, -np.inf)
        np.maximum.at(last.reshape(-1), key, self._t[ea:eb])
        for w in np.flatnonzero(counts.any(axis=1)).tolist():
            self._account(w, counts[w].tolist(), last[w].tolist())
        if rel is not None:
            # Every ACKed arrival but a payload's first is a duplicate.
            rel.duplicates_suppressed += int(
                counts[:, (_T_ARR_ACKUP, _T_ARR_ACKLOST)].sum()
                - counts[:, _FIRST].sum())
        n_ex = int(counts[:, _T_EXHAUST].sum())
        for t, w, i in self._ex[:n_ex]:
            self.waves[w]._exhaust(t, i)
        del self._ex[:n_ex]

    def _account(self, w: int, counts: list, last: list) -> None:
        """Batch ``w``'s share of the run: ``counts`` items per
        entry kind, the ``last`` of each at that time (``-inf`` when
        absent)."""
        net = self.net
        rel = net.reliable
        wave = self.waves[w]
        wave._pos += sum(counts[:_N_TYPES])
        obs = _obs.OBS

        def account(typs, dkind, bits, reason=None, silent=False):
            """One aggregate record and obs event for the items of
            ``typs``: delivered, or dropped for ``reason``."""
            count = sum(counts[typ] for typ in typs)
            if not count:
                return
            t = max(last[typ] for typ in typs)
            if not silent:
                net.trace.record(
                    WaveRecord(t, dkind, count, count * bits,
                               delivered=reason is None)
                )
            if not obs.enabled:
                return
            fields = {} if reason is None else {"reason": reason}
            obs.emit("net.deliver" if reason is None else "net.drop", t_ms=t,
                     kind=dkind, bits=count * bits, count=count, **fields)

        n_re = counts[_T_RETRANS]
        if n_re:
            rel.retransmits += n_re
            if obs.enabled:
                obs.emit("net.retransmit", t_ms=last[_T_RETRANS],
                         kind=wave.kind, count=n_re)
        account((_T_LINKDOWN,), wave.kind, wave.frame_bits, "link_down")
        account((_T_LOST,), wave.kind, wave.frame_bits, "loss")
        account((_T_FRAME_MID,), wave.kind, wave.frame_bits, "in_flight",
                silent=True)
        account(_ARR_TYPES, wave.kind, wave.frame_bits)
        n_acked = counts[_T_ARR_ACKUP] + counts[_T_ARR_ACKLOST]
        if n_acked:
            rel.acks_sent += n_acked
        account((_T_ARR_ACKLOST,), "net.ack", ACK_BITS, "loss")
        account((_T_ACK_MID,), "net.ack", ACK_BITS, "in_flight", silent=True)
        account((_T_ACK_ARR,), "net.ack", ACK_BITS)
