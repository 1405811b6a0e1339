"""Picklable subgroup jobs for the parallel two-layer round.

Two job shapes mirror the two execution styles in the repo:

- :class:`SubgroupTask` / :func:`run_subgroup_round` — one subgroup's
  k-out-of-n SAC **protocol** round on its own private simulator
  (:class:`~repro.secure.protocol.SacProtocolPeer` actors, crashes,
  timeouts, byte-accounted wire).  Used by
  :func:`repro.core.wire_round.run_two_layer_wire_round`.
- :class:`FtSacJob` / :func:`run_ftsac_job` — one subgroup's
  **functional** fault-tolerant SAC (paper Alg. 4).  Used by
  :class:`repro.core.two_layer.TwoLayerAggregator` and therefore
  :meth:`repro.p2pfl.P2PFLSystem.run_round`.

Both carry an explicit RNG seed spawned deterministically by the caller,
so the computed shares — and hence every downstream value — are
bit-identical whether the job runs inline, on a thread, or in a worker
process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..obs.causal import TraceContext
from ..secure.errors import SacReconstructionError
from ..secure.fault_tolerant import FtSacResult, fault_tolerant_sac
from ..secure.protocol import SacProtocolPeer
from ..simnet import FixedLatency, Network, Simulator, TraceRecorder


@dataclass(frozen=True)
class SubgroupTask:
    """Everything one subgroup's wire-level SAC round needs, picklable."""

    group: int
    members: tuple[int, ...]
    leader: int  # global peer id
    k: int
    models: tuple
    peer_seeds: tuple[int, ...]  # one per member, in member order
    share_codec: str
    delay_ms: float
    bandwidth_bps: float | None
    subtotal_timeout_ms: float
    round_timeout_ms: float
    #: ``(global peer id, crash time ms)`` pairs within this subgroup
    crash_at: tuple[tuple[int, float], ...] = ()
    #: round trace id stamped on causal spans (matches the parent's)
    trace_id: str = "trace"


@dataclass(frozen=True)
class SubgroupOutcome:
    """What the parent round needs back from one subgroup worker."""

    group: int
    average: Optional[np.ndarray]
    finish_time_ms: Optional[float]
    recovered: tuple[int, ...]
    bits_sent: float
    messages_sent: int
    bits_by_kind: dict
    dropped: int = 0
    #: causal context of the delivery that completed the aggregate
    #: (picklable; ``None`` when causal tracing is off)
    finish_ctx: Optional[TraceContext] = None


def run_subgroup_round(task: SubgroupTask) -> SubgroupOutcome:
    """Simulate one subgroup's SAC round in isolation.

    The private simulator starts at ``t=0`` — the same origin the
    subgroup has inside the sequential all-peers simulation — so every
    timestamp (events, finish time) matches the sequential path exactly.
    The run stops once the leader holds the average: at that instant no
    intra-subgroup message is still in flight (the leader's average
    requires every subtotal/recovery reply it was waiting for), so the
    traced bits and messages equal the sequential path's share.
    """
    sim = Simulator()
    trace = TraceRecorder()
    network = Network(
        sim, latency=FixedLatency(task.delay_ms),
        rng=np.random.default_rng(0), trace=trace,
        bandwidth_bps=task.bandwidth_bps,
    )
    network.trace_id = task.trace_id
    n = len(task.members)
    peers = []
    for pos, pid in enumerate(task.members):
        peer = SacProtocolPeer(
            pid, sim, network, n, task.k, task.leader,
            np.asarray(task.models[pos], dtype=np.float64),
            np.random.default_rng(task.peer_seeds[pos]),
            task.subtotal_timeout_ms,
            members=list(task.members),
            share_codec=task.share_codec,
        )
        peer.group = task.group  # labels sac.* events like the embedded peer
        peers.append(peer)
    for peer in peers:
        sim.schedule(0.0, peer.start_round)
    for pid, t in task.crash_at:
        sim.schedule(t, lambda pid=pid: network.crash(pid))

    leader_peer = peers[task.members.index(task.leader)]
    sim.run_while(
        lambda: leader_peer.average is None
        and sim.now < task.round_timeout_ms
    )
    outcome = SubgroupOutcome(
        group=task.group,
        average=leader_peer.average,
        finish_time_ms=leader_peer.finish_time,
        recovered=tuple(sorted(leader_peer.recovered)),
        bits_sent=trace.total_bits,
        messages_sent=trace.total_messages,
        bits_by_kind=trace.by_kind(),
        dropped=trace.total_dropped,
        finish_ctx=leader_peer.finish_ctx,
    )
    network.close()
    return outcome


@dataclass(frozen=True)
class FtSacJob:
    """One subgroup's functional Alg. 4 round (aggregator path), picklable."""

    group: int
    models: tuple
    k: int
    leader: int  # member position
    crashed: frozenset[int]  # member positions
    bits_per_param: int
    child_seed: int


@dataclass(frozen=True)
class FtSacOutcome:
    group: int
    result: Optional[FtSacResult]
    #: set when reconstruction failed (> n-k adversarial crashes)
    failed: bool = False


def run_ftsac_job(job: FtSacJob) -> FtSacOutcome:
    """Run :func:`~repro.secure.fault_tolerant.fault_tolerant_sac` for one
    subgroup with its own child generator (seeded by the caller)."""
    rng = np.random.default_rng(job.child_seed)
    try:
        result = fault_tolerant_sac(
            list(job.models),
            k=job.k,
            rng=rng,
            leader=job.leader,
            crashed=set(job.crashed),
            bits_per_param=job.bits_per_param,
        )
    except SacReconstructionError:
        return FtSacOutcome(group=job.group, result=None, failed=True)
    return FtSacOutcome(group=job.group, result=result)
