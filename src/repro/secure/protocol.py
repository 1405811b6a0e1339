"""SAC as a message-passing protocol on the simulated network.

The functional implementations (:mod:`.sac`, :mod:`.fault_tolerant`)
compute what SAC produces; this module executes *how* — share bundles and
subtotals as timed messages over :mod:`repro.simnet`, with peers crashing
mid-round, leader-side timeouts, and recovery fetches from replica
holders (Alg. 4 lines 17-18).  It validates three things the functional
form cannot: wall-clock behaviour, byte accounting on a real wire, and
the dropout-timing semantics of Fig. 3.

Timeline of one round (k-out-of-n, leader ``L``):

1. ``t=0``: every peer splits its model and sends each peer ``j`` the
   bundle of share indices ``j .. j+n-k (mod n)``.
2. On receiving all ``n-1`` bundles a peer *can supply* the subtotals of
   its held indices; the ``k-1`` non-leaders whose primary ``L`` does not
   hold itself send theirs to ``L``.
3. ``L`` assembles all ``n`` subtotals.  If some are still missing after
   ``subtotal_timeout_ms`` (crashed primaries), it fetches them from
   surviving replica holders, which supply them on request.
4. ``L`` sums its own held subtotals with the received ones, averages,
   and the round completes.

Bundles are kept for the whole round, so every replica stays
recoverable.  Dense shares and subtotals travel as
:class:`~.batched.DenseShare` / :class:`~.batched.DenseSubtotal` handles
— ``|w|`` bits on the simulated wire, a few references in host memory —
and step 4 is their only arithmetic: one blocked pass of
:func:`~.batched.mean_of_subtotals`.  The seed codecs have no
``fraction * model`` form and sum a subtotal where it is supplied.

A peer that crashes *before* its bundles go out makes the round
unrecoverable (its model's shares are gone); the liveness watch reports
that as a typed ``unrecoverable_dropout`` — the caller restarts with the
survivors, as in the plain-SAC abort path.

Both actor rounds — :func:`run_sac_protocol` and
:func:`repro.core.wire_round.run_two_layer_wire_round` — go through one
harness, :class:`ActorRound`: open, arm and drive, classify, result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

import numpy as np

from ..obs import runtime as _obs
from ..simnet import (
    LEADER_ISOLATED,
    OUTCOME_COMPLETED,
    TIMED_OUT,
    UNRECOVERABLE_DROPOUT,
    FixedLatency,
    Network,
    RoundOutcome,
    SimNode,
    Simulator,
    TraceRecorder,
    check_transport,
)
from .batched import DenseSubtotal, divide_handles, mean_of_subtotals

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..chaos.schedule import FaultSchedule
from .replicated import holders_of_share, shares_held_by
from .sac import (
    DEFAULT_BITS_PER_PARAM,
    _check_codec,
    check_same_shape,
    reference_group_average,
    spawn_peer_seeds,
)
from .seedshare import SeedShare, seeded_zero_sum_shares

#: how long a leader waits for a follower's subtotal before it fetches the
#: missing share from a replica holder (Alg. 4 l. 17-18); also the period
#: of a round's watch tick.
SUBTOTAL_TIMEOUT_MS = 100.0


@dataclass(frozen=True)
class SharesBundle:
    origin: int
    #: share index -> DenseShare / np.ndarray (a full ``|w|`` vector on
    #: the wire) or SeedShare (compressed)
    shares: dict

    def size_bits(self) -> float:
        total = 0.0
        for v in self.shares.values():
            if isinstance(v, SeedShare):
                total += v.size_bits()
            else:
                total += float(v.size * DEFAULT_BITS_PER_PARAM)
        return total


@dataclass(frozen=True)
class Subtotal:
    index: int
    #: a DenseSubtotal handle under the dense codec; ``|w|`` on the wire
    value: np.ndarray | DenseSubtotal

    def size_bits(self) -> float:
        return float(self.value.size * DEFAULT_BITS_PER_PARAM)


@dataclass(frozen=True)
class RecoveryRequest:
    index: int

    def size_bits(self) -> float:
        return 64.0


@dataclass(frozen=True)
class ActorRoundResult:
    """What one actor round reports: a SAC group or a whole two-layer round.

    ``outcome`` is the typed verdict: ``completed`` on success,
    otherwise a degradation status with a human-readable ``reason``
    naming the cause (see :class:`repro.simnet.RoundOutcome`).
    """

    average: Optional[np.ndarray]
    outcome: RoundOutcome
    #: when the aggregate (SAC) / the last surviving peer's global model
    #: (two-layer) landed; ``None`` unless the round completed.
    finish_time_ms: Optional[float]
    #: virtual time the round stopped at — for a typed failure, the
    #: watch tick that detected it.
    end_time_ms: float
    bits_sent: float
    messages_sent: int
    bits_by_kind: dict
    #: subtotals fetched from replica holders (Alg. 4 lines 17-18), by
    #: share index in a single-group round and by the owning peer's
    #: global id in a two-layer round (index ``i`` of a group belongs to
    #: its ``i``-th member).
    recovered_shares: tuple[int, ...]
    #: transport-level retransmissions this round (0 under fire-and-forget).
    retransmits: int
    #: messages the network failed to deliver (link down or random loss).
    drops: int
    #: simulator heap telemetry at round end (see ``Simulator.heap_stats``).
    heap_stats: dict

    @property
    def gigabits(self) -> float:
        return self.bits_sent / 1e9


class SacProtocolPeer(SimNode):
    """One subgroup member executing Alg. 4 on the wire.

    ``members`` lists the global network ids of the subgroup; share
    indices are member *positions*, so the same actor works standalone
    or embedded in a larger multi-group network, where ``group`` labels
    its ``sac.*`` events.
    """

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        network: Network,
        members: Sequence[int],
        k: int,
        leader: int,
        model: np.ndarray,
        rng: np.random.Generator,
        subtotal_timeout_ms: float,
        share_codec: str = "dense",
        group: int | None = None,
    ) -> None:
        super().__init__(node_id, sim, network)
        _check_codec(share_codec)
        self.share_codec = share_codec
        self.group = group
        self.members = list(members)
        self.n = n = len(self.members)
        self.k = k
        self.position = self.members.index(node_id)
        self.leader = leader  # global id
        self.leader_pos = self.members.index(leader)
        self.model = np.asarray(model, dtype=np.float64)
        self.rng = rng
        self.subtotal_timeout_ms = subtotal_timeout_ms
        self.held = set(shares_held_by(self.position, n, k))
        # Alg. 4 lines 14-16: only the k-1 peers whose primary subtotal
        # the leader does not hold itself send theirs.
        self._sends_primary = (
            self.position != self.leader_pos
            and self.position not in shares_held_by(self.leader_pos, n, k)
        )
        self._bundles: dict[int, dict] = {}
        #: subtotals that arrived over the wire (leader only)
        self._received: dict[int, np.ndarray] = {}
        self._recovery_pending: set[int] = set()
        self._recovery_attempts: dict[int, int] = {}
        self.recovered: set[int] = set()
        self.average: Optional[np.ndarray] = None
        self.finish_time: Optional[float] = None
        self._round_start: Optional[float] = None

    def _emit(self, name: str, **fields) -> None:
        _obs.OBS.emit(
            name, t_ms=self.sim.now, node=self.node_id,
            group=self.group, **fields,
        )

    # ------------------------------------------------------------- phase 1
    def start_round(self) -> None:
        self._round_start = self.sim.now
        if _obs.OBS.enabled:
            self._emit("sac.shares_out", n=self.n, k=self.k)
        if self.share_codec == "dense":
            shares = divide_handles(self.model, self.n, self.rng)

            def entry(idx: int, wire: bool):
                return shares[idx]
        else:
            # Residual at this peer's own index; mask shares travel as
            # PRG seeds ("seed") or the expanded vectors ("seed-dense").
            seeded = seeded_zero_sum_shares(
                self.model, self.n, self.rng, residual_index=self.position
            )

            def entry(idx: int, wire: bool):
                if wire and self.share_codec == "seed":
                    return seeded.share(idx)
                return seeded.expand(idx)

        my_bundle = {}
        for j in range(self.n):
            wire = j != self.position
            bundle = {
                idx: entry(idx, wire)
                for idx in shares_held_by(j, self.n, self.k)
            }
            if not wire:
                my_bundle = bundle
            else:
                msg = SharesBundle(self.position, bundle)
                self.send(
                    self.members[j], msg, size_bits=msg.size_bits(),
                    kind="sac.share",
                )
        if self.position == self.leader_pos:
            self.set_timer(self.subtotal_timeout_ms, self._check_stalled)
        self._accept_bundle(self.position, my_bundle)

    def _accept_bundle(self, origin: int, shares: dict) -> None:
        if origin in self._bundles:
            return
        self._bundles[origin] = shares
        if len(self._bundles) == self.n:
            if _obs.OBS.enabled:
                self._emit("sac.bundles_complete")
            self._on_bundles_complete()

    # ------------------------------------------------------------- phase 2
    def can_supply(self, idx: int) -> bool:
        """Whether this peer can produce subtotal ``idx`` right now.

        True when the subtotal arrived over the wire, or when ``idx`` is
        one of this peer's held indices and all ``n`` bundles are in (it
        is then produced on demand, never stored).
        """
        return idx in self._received or (
            idx in self.held and len(self._bundles) == self.n
        )

    def _subtotal(self, idx: int) -> np.ndarray | DenseSubtotal:
        """Subtotal ``idx``: the received copy, else from the bundles,
        origins left to right (requires :meth:`can_supply`) — a handle
        under the dense codec, summed here under the seed codecs."""
        value = self._received.get(idx)
        if value is not None:
            return value
        parts = [self._bundles[origin][idx] for origin in range(self.n)]
        if self.share_codec == "dense":
            return DenseSubtotal(parts)
        total = None
        for part in parts:
            if isinstance(part, SeedShare):
                part = part.expand()
            if total is None:
                # A copy: the first term may be another peer's residual.
                total = part.copy()
            else:
                np.add(total, part, out=total)
        return total

    def _on_bundles_complete(self) -> None:
        if self._sends_primary:
            if _obs.OBS.enabled:
                self._emit("sac.subtotal_sent", index=self.position)
            msg = Subtotal(self.position, self._subtotal(self.position))
            self.send(self.leader, msg, size_bits=msg.size_bits(), kind="sac.subtotal")
        if self.position == self.leader_pos:
            # Arm the dropout detector (Alg. 4 line 17) and finish right
            # away if this peer already holds every subtotal (k = 1).
            self.set_timer(self.subtotal_timeout_ms, self._check_missing)
            self._maybe_finish()

    # ------------------------------------------------- phase 3 (leader only)
    def _check_stalled(self) -> None:
        """Armed at share-out: a bundle whose origin died for good never
        comes, so the bundles never complete to arm :meth:`_check_missing`;
        the leader then fetches from the live holders at once."""
        if self.average is not None or len(self._bundles) == self.n:
            return
        if any(
            _gone_for_good(self.network, self.members[o])
            for o in range(self.n) if o not in self._bundles
        ):
            self._check_missing()
        else:
            self.set_timer(self.subtotal_timeout_ms, self._check_stalled)

    def _check_missing(self) -> None:
        if self.average is not None:
            return
        missing = [idx for idx in range(self.n) if not self.can_supply(idx)]
        for idx in missing:
            holders = [
                h
                for h in holders_of_share(idx, self.n, self.k)
                if h != self.position
                and not self.network.is_crashed(self.members[h])
            ]
            if not holders:
                continue
            if idx in self._recovery_pending:
                # A full timeout passed with the fetch unanswered (the
                # request or its reply was lost, or the holder crashed
                # after our liveness check): rotate to the next
                # surviving holder instead of stalling on the first one
                # forever.
                self._recovery_attempts[idx] += 1
            else:
                self._recovery_pending.add(idx)
                self._recovery_attempts.setdefault(idx, 0)
            holder = holders[self._recovery_attempts[idx] % len(holders)]
            if _obs.OBS.enabled:
                self._emit(
                    "sac.recover.request", index=idx,
                    holder=self.members[holder],
                    attempt=self._recovery_attempts[idx],
                )
            req = RecoveryRequest(idx)
            self.send(
                self.members[holder], req,
                size_bits=req.size_bits(), kind="sac.recover",
            )
        if missing:
            self.set_timer(self.subtotal_timeout_ms, self._check_missing)

    def _maybe_finish(self) -> None:
        if self.position != self.leader_pos or self.average is not None:
            return
        if not all(self.can_supply(idx) for idx in range(self.n)):
            return
        total = mean_of_subtotals(
            [self._subtotal(idx) for idx in range(self.n)], self.n
        )
        self.average = total
        self.finish_time = self.sim.now
        if _obs.OBS.enabled:
            start = self._round_start or 0.0
            dur = self.sim.now - start
            # t_ms is the slice *start* so the Chrome exporter renders the
            # round as a [start, start+dur] bar.
            _obs.OBS.emit(
                "sac.complete", t_ms=start, node=self.node_id,
                dur_ms=dur, group=self.group,
                n=self.n, k=self.k, recovered=sorted(self.recovered),
            )
        self.on_average(total)

    def on_average(self, average: np.ndarray) -> None:
        """Hook for embedding protocols (e.g. the two-layer round)."""

    # -------------------------------------------------------------- inbound
    def on_message(self, src: int, msg) -> None:
        if isinstance(msg, SharesBundle):
            self._accept_bundle(msg.origin, msg.shares)
        elif isinstance(msg, Subtotal):
            if msg.index in self._recovery_pending:
                self.recovered.add(msg.index)
                self._recovery_pending.discard(msg.index)
                if _obs.OBS.enabled:
                    self._emit("sac.recover.fetched", index=msg.index, holder=src)
            self._received[msg.index] = msg.value
            self._maybe_finish()
        elif isinstance(msg, RecoveryRequest):
            if self.can_supply(msg.index):
                # Alg. 4 lines 17-18: the replica is supplied on request.
                reply = Subtotal(msg.index, self._subtotal(msg.index))
                self.send(src, reply, size_bits=reply.size_bits(), kind="sac.subtotal")
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown SAC message {type(msg).__name__}")


def _gone_for_good(network: Network, node_id: int) -> bool:
    """Crashed with no recovery scheduled (god's-eye permanence check)."""
    return network.is_crashed(node_id) and not network.may_recover(node_id)


def _exhausted_outcome(network: Network) -> Optional[RoundOutcome]:
    """Typed timeout once a retransmit budget ran out on an alive peer."""
    reliable = network.reliable
    if reliable is None or not reliable.exhausted_undelivered:
        return None
    ex = next(
        e for e in reliable.exhausted
        if not e.delivered and not network.is_crashed(e.dst)
    )
    return RoundOutcome(
        TIMED_OUT,
        reason=(
            f"retransmit budget exhausted for {ex.kind!r}"
            f" {ex.src}->{ex.dst} with the destination alive"
        ),
    )


class FatalWatch:
    """Periodic god's-eye liveness check of one round.

    Detects provably unrecoverable rounds (and exhausted retransmit
    budgets) early instead of idling to the round timeout; the verdict
    lands in ``outcome``.  Timer-only — it sends no messages and draws no
    randomness, so fault-free runs stay bit-identical to the seed.  An
    object re-arming a bound method, not a closure re-arming itself: a
    function that names itself is a reference cycle, and this one would
    pin every peer of the round until the cyclic collector ran.
    """

    def __init__(self, sim, network, period_ms, done, classify) -> None:
        self.outcome: Optional[RoundOutcome] = None
        self._sim, self._network, self._period_ms = sim, network, period_ms
        self._done, self._classify = done, classify
        sim.schedule(period_ms, self._check)

    def _check(self) -> None:
        if self._done():
            return
        out = _exhausted_outcome(self._network)
        if out is None and self._network._crashed:  # crash permanence only
            out = self._classify()
        if out is not None:
            self.outcome = out
        else:
            self._sim.schedule(self._period_ms, self._check)


def classify_sac_failure(
    peers: Sequence[SacProtocolPeer],
    leader_pos: int,
    network: Network,
) -> Optional[RoundOutcome]:
    """Early, *sound* unrecoverability check for one SAC group.

    Returns a typed failure only when completion is provably impossible
    from crash permanence alone — the simulated stand-in for the perfect
    failure detector a real deployment approximates with timeouts.  It
    inspects peer state (bundles, :meth:`~SacProtocolPeer.can_supply`)
    with god's-eye access;
    transient causes (loss, partitions that may heal) never trigger it,
    so a ``None`` here just means "keep running".
    """
    leader_peer = peers[leader_pos]
    n, k = leader_peer.n, leader_peer.k
    members = leader_peer.members
    if _gone_for_good(network, members[leader_pos]):
        return RoundOutcome(
            UNRECOVERABLE_DROPOUT,
            reason=(
                f"leader {members[leader_pos]} crashed with no recovery"
                " scheduled; SAC needs Raft re-election to continue"
            ),
        )
    for idx in range(n):
        if leader_peer.can_supply(idx):
            continue
        supply_possible = False
        for h in holders_of_share(idx, n, k):
            if _gone_for_good(network, members[h]):
                continue
            holder_peer = peers[h]
            if holder_peer.can_supply(idx):
                supply_possible = True
                break
            # The holder can still compute subtotal ``idx`` iff every
            # origin's bundle either already arrived or could still be
            # resent (origin alive or recovering).  Lost-but-alive cases
            # are conservatively counted as possible; the round timeout
            # owns them.
            if all(
                o in holder_peer._bundles
                or not _gone_for_good(network, members[o])
                for o in range(n)
            ):
                supply_possible = True
                break
        if not supply_possible:
            dead_holders = sorted(
                members[h]
                for h in holders_of_share(idx, n, k)
                if _gone_for_good(network, members[h])
            )
            if dead_holders:
                reason = (
                    f"share index {idx} is lost: holders {dead_holders}"
                    " crashed and no surviving peer can reconstruct its"
                    " subtotal"
                )
            else:
                dead_origins = sorted(
                    members[o] for o in range(n)
                    if _gone_for_good(network, members[o])
                )
                reason = (
                    f"share index {idx} is lost: peers {dead_origins}"
                    " crashed before their share bundles were delivered"
                )
            return RoundOutcome(UNRECOVERABLE_DROPOUT, reason=reason)
    return None


def classify_timeout(
    network: Network,
    leader: str,
    leader_id: int,
    waiting: Sequence[int],
    stalled: str,
) -> RoundOutcome:
    """Name the most likely cause after a round idled to its timeout.

    ``leader`` is how the reason names peer ``leader_id`` (``"leader 2"``,
    ``"FedAvg leader 0"``), ``waiting`` the alive peers it still needs or
    that still need it, ``stalled`` what the round was left waiting for.
    """
    tl = network.fault_timeline
    partition = None if tl is None else tl.span_at(network.sim.now).groups
    if partition is not None:
        side = partition.get(leader_id)
        cut_off = [p for p in waiting if partition.get(p) != side]
        if cut_off or network.is_crashed(leader_id):
            return RoundOutcome(
                LEADER_ISOLATED,
                reason=(
                    f"partition separates {leader} from alive peers {cut_off}"
                ),
            )
    exhausted = _exhausted_outcome(network)
    if exhausted is not None:
        return exhausted
    return RoundOutcome(TIMED_OUT, reason=f"round timeout with {stalled}")


def reliable_transport_opts(
    delay_ms: float | None, transport_opts: dict | None
) -> dict:
    """Default the reliable channel's RTO to two round trips of a fixed
    ``delay_ms``; with none (``None``) the caller must set it."""
    opts = dict(transport_opts or {})
    if "base_rto_ms" not in opts:
        if delay_ms is None:
            raise ValueError(
                "a latency model without a fixed delay_ms sizes no RTO: "
                "pass transport_opts['base_rto_ms']")
        opts["base_rto_ms"] = 4.0 * delay_ms
    return opts


def sac_reference_average(
    models: Sequence[np.ndarray], seed: int = 0, share_codec: str = "dense"
) -> np.ndarray:
    """Fault-free aggregate of :func:`run_sac_protocol` at ``seed``.

    The seed fan-out and the group kernel of :mod:`.sac`, nothing of its
    own; this is the reference the chaos invariants hold a completed
    faulted round to.
    """
    rng = np.random.default_rng(seed)
    return reference_group_average(
        models, spawn_peer_seeds(rng, len(models)), share_codec
    )


def check_crash_at(
    crash_at: dict[int, float] | None,
    peer_ids: Iterable[int],
    leaders: Iterable[int],
) -> dict[int, float]:
    """The one ``crash_at`` check of every actor round: ids, leaders, times."""
    crash_at = dict(crash_at or {})
    bad = sorted(set(crash_at) - set(peer_ids))
    if bad:
        raise ValueError(f"crash_at peer ids out of range: {bad}")
    crashed_leaders = sorted(set(crash_at) & set(leaders))
    if crashed_leaders:
        raise ValueError(
            f"crashing leaders {crashed_leaders} needs Raft re-election"
            " (see repro.twolayer_raft), not a SAC round"
        )
    negative = {p: t for p, t in crash_at.items() if not t >= 0}
    if negative:
        raise ValueError(f"crash_at times must be >= 0, got {negative}")
    return crash_at


class ActorRound:
    """One actor round, open to result — the path every entry point takes.

    *Open* is the constructor: the inputs that would otherwise die
    mid-simulation are rejected (ragged model shapes, ``crash_at`` ids,
    leaders and times, a ``schedule`` touching unknown peers), then the
    simulator and the traced network are built from the seed;
    ``link_opts`` (``loss_rate``, ``bandwidth_bps``, ``serialize_uplink``)
    reach :class:`Network` as given.  ``rng`` is the network's generator,
    from which callers spawn their peer seeds.
    """

    def __init__(
        self,
        models: Sequence[np.ndarray],
        peer_ids: Sequence[int],
        leaders: Sequence[int],
        crash_at: dict[int, float] | None,
        schedule: "FaultSchedule | None",
        seed: int,
        delay_ms: float,
        trace_id: str,
        transport: str = "fire_and_forget",
        transport_opts: dict | None = None,
        **link_opts,
    ) -> None:
        check_same_shape(models)
        self.crash_at = check_crash_at(crash_at, peer_ids, leaders)
        if schedule is not None:
            schedule.validate_nodes(peer_ids)
        self.schedule = schedule
        check_transport(transport)
        if transport == "reliable":
            transport_opts = reliable_transport_opts(delay_ms, transport_opts)
        self.sim = Simulator()
        self.trace = TraceRecorder()
        self.rng = np.random.default_rng(seed)
        self.network = Network(
            self.sim, latency=FixedLatency(delay_ms), rng=self.rng,
            trace=self.trace, transport=transport,
            transport_opts=transport_opts, **link_opts,
        )
        self.network.trace_id = trace_id

    def drive(
        self,
        starters: Iterable[SacProtocolPeer],
        done: Callable[[], bool],
        classify: Callable[[], Optional[RoundOutcome]],
        stalled: Callable[[], tuple],
        period_ms: float,
        round_timeout_ms: float,
    ) -> RoundOutcome:
        """Arm the round, run it, and say how it ended.

        Armed, in this order: the chaos schedule (a ``Crash`` at t=0 is
        in force for the t=0 sends), the ``starters``' t=0 share-out,
        the ``crash_at`` injections, and the :class:`FatalWatch` running
        ``classify`` — the round's early unrecoverability check — every
        ``period_ms``.  The simulator then runs to ``done()``, the round
        timeout or a fatal verdict; ``stalled()`` supplies the
        :func:`classify_timeout` arguments if the round idles out.
        """
        sim, network = self.sim, self.network
        if self.schedule is not None:
            self.schedule.arm(sim, network)
        for peer in starters:
            sim.schedule(0.0, peer.start_round)
        for pid, t in self.crash_at.items():
            sim.schedule(t, partial(network.crash, pid))
        watch = FatalWatch(sim, network, period_ms, done, classify)
        sim.run_while(
            lambda: not done()
            and sim.now < round_timeout_ms
            and watch.outcome is None
        )
        if done():
            return OUTCOME_COMPLETED
        if watch.outcome is not None:
            return watch.outcome
        return classify_timeout(network, *stalled())

    def result(
        self,
        outcome: RoundOutcome,
        average: Optional[np.ndarray],
        finish_time_ms: Optional[float],
        recovered: Iterable[int],
    ) -> ActorRoundResult:
        """Read the round's results off, then release its actor graph."""
        network, trace = self.network, self.trace
        result = ActorRoundResult(
            average=average,
            outcome=outcome,
            finish_time_ms=finish_time_ms,
            end_time_ms=self.sim.now,
            bits_sent=trace.total_bits,
            messages_sent=trace.total_messages,
            bits_by_kind=trace.by_kind(),
            recovered_shares=tuple(sorted(recovered)),
            retransmits=network.reliable.retransmits if network.reliable else 0,
            drops=trace.total_dropped,
            heap_stats=self.sim.heap_stats(),
        )
        network.close()
        return result


def run_sac_protocol(
    models: Sequence[np.ndarray],
    k: int,
    leader: int = 0,
    delay_ms: float = 15.0,
    seed: int = 0,
    crash_at: dict[int, float] | None = None,
    subtotal_timeout_ms: float = SUBTOTAL_TIMEOUT_MS,
    round_timeout_ms: float = 10_000.0,
    bandwidth_bps: float | None = None,
    share_codec: str = "dense",
    loss_rate: float = 0.0,
    transport: str = "fire_and_forget",
    transport_opts: dict | None = None,
    schedule: "FaultSchedule | None" = None,
) -> ActorRoundResult:
    """Execute one k-out-of-n SAC round on the simulated network.

    Parameters
    ----------
    models:
        One weight vector per peer.
    crash_at:
        ``{peer_id: time_ms}`` crash injection (relative to round start).
    subtotal_timeout_ms:
        How long the leader waits for missing subtotals before fetching
        them from replica holders.
    share_codec:
        ``"dense"`` (default) ships materialized share bundles (Alg. 1
        splits); ``"seed"`` ships PRG seeds for mask shares and full
        vectors only for residual replicas; ``"seed-dense"`` materializes
        the seed-derived shares on the wire (control arm).
    loss_rate:
        Probability that any physical transmission is dropped.
    transport:
        ``"fire_and_forget"`` (seed default, bit-identical) or
        ``"reliable"`` for the ACK/retransmit channel — required for the
        round to survive a non-zero ``loss_rate`` deterministically.
    transport_opts:
        Overrides for the reliable channel (``base_rto_ms``,
        ``max_attempts``); ``base_rto_ms`` defaults to ``4 * delay_ms``.
    schedule:
        Optional :class:`repro.chaos.FaultSchedule` armed on the round's
        simulator — crashes/recoveries, partition windows, loss windows
        and delay spikes all land mid-flight.
    """
    n = len(models)
    members = list(range(n))
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if leader not in members:
        raise ValueError("leader out of range")
    rnd = ActorRound(
        models, members, (leader,), crash_at, schedule, seed, delay_ms,
        f"sac:s{seed}", loss_rate=loss_rate, bandwidth_bps=bandwidth_bps,
        transport=transport, transport_opts=transport_opts,
    )
    network = rnd.network
    peers = [
        SacProtocolPeer(
            pid, rnd.sim, network, members, k, leader, model,
            np.random.default_rng(peer_seed), subtotal_timeout_ms,
            share_codec=share_codec,
        )
        for pid, model, peer_seed in zip(
            members, models, spawn_peer_seeds(rnd.rng, n)
        )
    ]
    leader_peer = peers[members.index(leader)]
    outcome = rnd.drive(
        peers,
        done=lambda: leader_peer.average is not None,
        classify=lambda: classify_sac_failure(
            peers, leader_peer.position, network
        ),
        stalled=lambda: (
            f"leader {leader}", leader,
            [m for m in members
             if m != leader and not network.is_crashed(m)],
            "subtotals missing for indices "
            f"{[i for i in members if not leader_peer.can_supply(i)]}",
        ),
        period_ms=subtotal_timeout_ms,
        round_timeout_ms=round_timeout_ms,
    )
    return rnd.result(
        outcome, leader_peer.average, leader_peer.finish_time,
        leader_peer.recovered,
    )
