"""One complete two-layer aggregation round on the simulated wire.

Every peer is a network actor: subgroups run the Alg. 4 SAC protocol
concurrently, each subgroup leader uploads its SAC average to the FedAvg
leader, the FedAvg leader computes the subgroup-size-weighted mean
(Alg. 3 line 10), pushes it back through the leaders, and the round
completes when every alive peer holds the global model.

The round is one body on the actor harness of
:mod:`repro.secure.protocol`: all subgroups' SAC rounds and the FedAvg
layer run in one simulator, on one virtual clock, on one host thread.

This is the end-to-end validation piece: the measured traffic equals
:func:`repro.core.costs.two_layer_ft_cost_from_topology` bit-for-bit,
and with ``serialize_uplink=True`` the measured completion time tracks
:func:`repro.core.latency.two_layer_round_latency_ms`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from ..fl.fedavg import fedavg
from ..obs import runtime as _obs
from ..secure.protocol import (
    SUBTOTAL_TIMEOUT_MS,
    ActorRound,
    ActorRoundResult,
    SacProtocolPeer,
    _gone_for_good,
    classify_sac_failure,
)
from ..secure.sac import (
    DEFAULT_BITS_PER_PARAM,
    check_same_shape,
    reference_group_average,
    spawn_peer_seeds,
)
from ..simnet import UNRECOVERABLE_DROPOUT, Network, RoundOutcome
from ..simnet.network import DEFAULT_DELAY_MS
from .topology import Topology
from .xlayer_wire import sequential_only

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..chaos.schedule import FaultSchedule


@dataclass(frozen=True)
class _Upload:
    """Subgroup leader -> FedAvg leader: the SAC average + group size."""

    group: int
    average: np.ndarray
    weight: float

    def size_bits(self) -> float:
        return float(np.asarray(self.average).size * DEFAULT_BITS_PER_PARAM)


@dataclass(frozen=True)
class _GlobalModel:
    average: np.ndarray

    def size_bits(self) -> float:
        return float(np.asarray(self.average).size * DEFAULT_BITS_PER_PARAM)


class _TwoLayerPeer(SacProtocolPeer):
    """SAC actor extended with the FedAvg layer's upload/broadcast roles."""

    def __init__(self, *args, round_ctx: "_RoundContext", **kw):
        super().__init__(*args, **kw)
        self.round_ctx = round_ctx
        self.global_model: Optional[np.ndarray] = None
        self.global_model_time: Optional[float] = None
        # FedAvg-leader state
        self._uploads: dict[int, _Upload] = {}

    # ----------------------------------------------------- subgroup -> fed
    def on_average(self, average: np.ndarray) -> None:
        ctx = self.round_ctx
        if _obs.OBS.enabled:
            _obs.OBS.emit(
                "round.subgroup_done", t_ms=self.sim.now,
                node=self.node_id, group=self.group,
            )
        upload = _Upload(self.group, average, weight=float(self.n))
        if self.node_id == ctx.fed_leader:
            self._accept_upload(upload)
        else:
            self.send(
                ctx.fed_leader, upload, size_bits=upload.size_bits(),
                kind="fed.upload",
            )

    def _accept_upload(self, upload: _Upload) -> None:
        ctx = self.round_ctx
        self._uploads[upload.group] = upload
        if len(self._uploads) == ctx.n_groups:
            items = sorted(self._uploads.items())
            global_avg = fedavg(
                [u.average for _, u in items],
                weights=[u.weight for _, u in items],
            )
            if _obs.OBS.enabled:
                _obs.OBS.emit(
                    "round.fed_aggregate", t_ms=self.sim.now,
                    node=self.node_id, groups=ctx.n_groups,
                )
            msg = _GlobalModel(global_avg)
            self._adopt_global(global_avg)
            # Push down through the other subgroup leaders...
            for leader in ctx.leaders:
                if leader != self.node_id:
                    self.send(
                        leader, msg, size_bits=msg.size_bits(), kind="fed.bcast"
                    )
            # ...and to this leader's own subgroup members.
            self._relay_to_members(msg)

    # ----------------------------------------------------- fed -> subgroup
    def _relay_to_members(self, msg: _GlobalModel) -> None:
        for member in self.members:
            if member != self.node_id:
                self.send(
                    member, msg, size_bits=msg.size_bits(), kind="sub.bcast"
                )

    def _adopt_global(self, average: np.ndarray) -> None:
        if self.global_model is None:
            self.global_model = average
            self.global_model_time = self.sim.now
            self.round_ctx.remaining.discard(self.node_id)

    def on_message(self, src: int, msg) -> None:
        if isinstance(msg, _Upload):
            self._accept_upload(msg)
        elif isinstance(msg, _GlobalModel):
            first = self.global_model is None
            self._adopt_global(msg.average)
            if first and self.node_id in self.round_ctx.leaders:
                self._relay_to_members(msg)
        else:
            super().on_message(src, msg)


@dataclass
class _RoundContext:
    fed_leader: int
    leaders: tuple[int, ...]
    n_groups: int
    #: peers that never crash (``crash_at``) still missing the global
    #: model; ``_adopt_global`` drains it, so "round complete" is O(1).
    remaining: set


def _classify_wire_failure(
    groups: list[list["_TwoLayerPeer"]],
    leader_peers: list["_TwoLayerPeer"],
    network: Network,
) -> Optional[RoundOutcome]:
    """Early, *sound* unrecoverability check for the two-layer round.

    Crash-permanence based, like :func:`classify_sac_failure`; transient
    causes (loss, healable partitions) never trigger it.  Subgroups are
    asked in index order, so of the failures detected at one watch tick
    the lowest group is reported.
    """
    fed_leader_peer = leader_peers[0]
    if _gone_for_good(network, fed_leader_peer.node_id):
        return RoundOutcome(
            UNRECOVERABLE_DROPOUT,
            reason=(
                f"FedAvg leader {fed_leader_peer.node_id} crashed with no"
                " recovery scheduled"
            ),
        )
    for gi, leader_peer in enumerate(leader_peers):
        if leader_peer.average is None:
            out = classify_sac_failure(
                groups[gi], leader_peer.position, network
            )
            if out is not None:
                return RoundOutcome(
                    out.status, reason=f"subgroup {gi}: {out.reason}"
                )
        elif (
            gi not in fed_leader_peer._uploads
            and _gone_for_good(network, leader_peer.node_id)
        ):
            return RoundOutcome(
                UNRECOVERABLE_DROPOUT,
                reason=(
                    f"subgroup {gi} leader {leader_peer.node_id} crashed"
                    " after aggregating but before its upload reached the"
                    " FedAvg leader"
                ),
            )
    return None


def run_two_layer_wire_round(
    topology: Topology,
    models: Sequence[np.ndarray],
    k: int | None = None,
    seed: int = 0,
    bandwidth_bps: float | None = None,
    serialize_uplink: bool = False,
    round_timeout_ms: float = 60_000.0,
    share_codec: str = "dense",
    parallel: str = "off",
    transport: str = "fire_and_forget",
    transport_opts: dict | None = None,
    schedule: "FaultSchedule | None" = None,
    trace_id: str | None = None,
) -> ActorRoundResult:
    """Execute one full two-layer aggregation round as network actors.

    The FedAvg leader is the first subgroup's leader.  The round is
    complete when every peer that does not crash has received the global
    model.  ``share_codec="seed"`` compresses the intra-subgroup share
    exchange to PRG seeds (see :mod:`repro.secure.seedshare`); the FedAvg
    layer (uploads and broadcasts) always ships full vectors.  Every link
    delays a message by :data:`~repro.simnet.network.DEFAULT_DELAY_MS`,
    and a follower's subtotal is awaited for
    :data:`~repro.secure.protocol.SUBTOTAL_TIMEOUT_MS`.

    The ``m`` subgroup SAC rounds run concurrently in virtual time,
    all in this round's one simulator; a degraded subgroup surfaces at
    the watch tick that detected it, as ``subgroup g: <reason>``.
    ``parallel`` accepts only ``"off"`` (see
    :func:`~repro.core.xlayer_wire.sequential_only`).

    ``transport``/``transport_opts``/``schedule`` mirror
    :func:`repro.secure.protocol.run_sac_protocol`: the ACK/retransmit
    channel and armed chaos schedules (crashes and loss come as
    :class:`repro.chaos.Crash` and :class:`repro.chaos.LossWindow`
    events).
    """
    if len(models) != topology.n_peers:
        raise ValueError(f"expected {topology.n_peers} models")
    sequential_only(parallel)
    if trace_id is None:
        trace_id = f"two_layer:s{seed}"
    rnd = ActorRound(
        models, range(topology.n_peers), topology.leaders, None, schedule,
        seed, DEFAULT_DELAY_MS, trace_id,
        bandwidth_bps=bandwidth_bps, serialize_uplink=serialize_uplink,
        transport=transport, transport_opts=transport_opts,
    )
    sim, network = rnd.sim, rnd.network
    ctx = _RoundContext(
        fed_leader=topology.leaders[0],
        leaders=tuple(topology.leaders),
        n_groups=topology.n_groups,
        remaining=set(range(topology.n_peers)) - set(rnd.crash_at),
    )
    groups: list[list[_TwoLayerPeer]] = []
    peer_seeds = iter(spawn_peer_seeds(rnd.rng, topology.n_peers))
    for gi, members in enumerate(topology.groups):
        n, leader = len(members), topology.leaders[gi]
        k_eff = min(k, n) if k is not None else n
        groups.append([
            _TwoLayerPeer(
                pid, sim, network, members, k_eff, leader, models[pid],
                np.random.default_rng(next(peer_seeds)), SUBTOTAL_TIMEOUT_MS,
                share_codec=share_codec, group=gi, round_ctx=ctx,
            )
            for pid in members
        ])
    peers = [peer for group_peers in groups for peer in group_peers]
    leader_peers = [gp[gp[0].leader_pos] for gp in groups]
    fed_leader_peer = leader_peers[0]
    # Crashed peers never adopt the global model; the round is complete
    # once every *surviving* peer holds it.  Without a chaos schedule the
    # survivor set is known up front, so completion is "``remaining`` has
    # drained"; under chaos, crashes and recoveries move it, so
    # membership is evaluated live — once the FedAvg leader is done.
    if schedule is None:
        def done() -> bool:
            return not ctx.remaining
    else:
        def done() -> bool:
            return fed_leader_peer.global_model is not None and all(
                p.global_model is not None or network.is_crashed(p.node_id)
                for p in peers
            )

    def stalled() -> tuple:
        undone_alive = sorted(
            p.node_id for p in peers
            if p.global_model is None and not network.is_crashed(p.node_id)
        )
        return (
            f"FedAvg leader {ctx.fed_leader}", ctx.fed_leader, undone_alive,
            f"alive peers {undone_alive} still missing the global model",
        )

    with _obs.OBS.span(
        "round.two_layer", clock=lambda: sim.now,
        peers=topology.n_peers, groups=topology.n_groups,
    ):
        outcome = rnd.drive(
            peers, done,
            classify=lambda: _classify_wire_failure(
                groups, leader_peers, network
            ),
            stalled=stalled,
            period_ms=SUBTOTAL_TIMEOUT_MS,
            round_timeout_ms=round_timeout_ms,
        )
    if _obs.OBS.enabled:
        _obs.OBS.emit(
            "round.complete", t_ms=sim.now, completed=outcome.ok,
            outcome=outcome.status,
            bits=rnd.trace.total_bits, messages=rnd.trace.total_messages,
        )
    times = [p.global_model_time for p in peers if p.global_model_time is not None]
    return rnd.result(
        outcome,
        fed_leader_peer.global_model,
        max(times) if outcome.ok and times else None,
        (p.members[i] for p in leader_peers for i in p.recovered),
    )


def two_layer_reference_average(
    topology: Topology,
    models: Sequence[np.ndarray],
    seed: int = 0,
    share_codec: str = "dense",
) -> np.ndarray:
    """Fault-free aggregate of :func:`run_two_layer_wire_round` at ``seed``.

    Alg. 3 with no simulator in it: per-peer seeds fan out of the round
    seed group-major (the creation order of the actors), each subgroup's
    SAC average is :func:`~repro.secure.sac.reference_group_average`,
    and the FedAvg leader's step is the same :func:`fedavg` call over the
    groups in index order with their sizes as weights.  Bit-identical to
    ``.average`` of every wire round that completes at this seed — any
    ``k``, share codec, transport, loss rate or
    tolerated fault schedule — which is the paper's Alg. 4 claim and what
    :func:`repro.chaos.invariants.check_safety` holds faulted rounds to.
    """
    if len(models) != topology.n_peers:
        raise ValueError(f"expected {topology.n_peers} models")
    check_same_shape(models)  # across groups too: fedavg would broadcast
    peer_seeds = iter(
        spawn_peer_seeds(np.random.default_rng(seed), topology.n_peers)
    )
    return fedavg(
        [
            reference_group_average(
                [models[pid] for pid in group],
                [next(peer_seeds) for _ in group],
                share_codec,
            )
            for group in topology.groups
        ],
        weights=[float(len(group)) for group in topology.groups],
    )
