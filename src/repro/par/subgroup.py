"""The picklable subgroup job of the parallel two-layer round.

:class:`SubgroupTask` / :func:`run_subgroup_round` — one subgroup's
k-out-of-n SAC **protocol** round on its own private simulator.  The
task is the keyword arguments of
:func:`repro.secure.protocol.run_sac_group` — the single-group runner
``run_sac_protocol`` also is — made picklable; the worker adds nothing
to it.  Used by :func:`repro.core.wire_round.run_two_layer_wire_round`.

The task carries the per-peer seeds the parent spawned from the round
seed (:func:`repro.secure.sac.spawn_peer_seeds`), so the computed shares
— and hence every downstream value — are bit-identical whether the job
runs inline, on a thread, or in a worker process.  The functional
aggregator (:class:`repro.core.two_layer.TwoLayerAggregator`) has no job
shape: it is one loop over the groups (EXPERIMENTS.md, *One no-simulator
Alg. 1–4*, has the measurements that retired its fan-out).
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
