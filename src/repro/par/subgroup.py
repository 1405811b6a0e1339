"""Picklable subgroup jobs for the parallel two-layer round.

Two job shapes mirror the two execution styles in the repo:

- :class:`SubgroupTask` / :func:`run_subgroup_round` — one subgroup's
  k-out-of-n SAC **protocol** round on its own private simulator.  The
  task is the keyword arguments of
  :func:`repro.secure.protocol.run_sac_group` — the single-group runner
  ``run_sac_protocol`` also is — made picklable; the worker adds
  nothing to it.  Used by
  :func:`repro.core.wire_round.run_two_layer_wire_round`.
- :class:`FtSacJob` / :func:`run_ftsac_job` — one subgroup's
  **functional** fault-tolerant SAC (paper Alg. 4).  Used by
  :class:`repro.core.two_layer.TwoLayerAggregator` and therefore
  :meth:`repro.p2pfl.P2PFLSystem.run_round`.

Both carry explicit RNG seeds spawned deterministically by the caller,
so the computed shares — and hence every downstream value — are
bit-identical whether the job runs inline, on a thread, or in a worker
process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..secure.errors import SacReconstructionError
from ..secure.fault_tolerant import FtSacResult, fault_tolerant_sac
from ..secure.protocol import ActorRoundResult, run_sac_group


@dataclass(frozen=True)
class SubgroupTask:
    """Everything one subgroup's wire-level SAC round needs, picklable.

    Field names are :func:`~repro.secure.protocol.run_sac_group`'s
    parameter names.
    """

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
    #: ``{global peer id: crash time ms}`` within this subgroup
    crash_at: dict = field(default_factory=dict)
    #: round trace id stamped on causal spans (matches the parent's)
    trace_id: str = "trace"


def run_subgroup_round(task: SubgroupTask) -> ActorRoundResult:
    """Simulate one subgroup's SAC round in isolation."""
    return run_sac_group(**vars(task))


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
