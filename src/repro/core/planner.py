"""Deployment planner: choose (n, k, m) under explicit constraints.

Turns the paper's Sec. VII trade-off discussion into an API: given the
peer count, the model size, and requirements (SAC dropout tolerance,
Raft crash tolerance, privacy floor), enumerate feasible subgroup
configurations and rank them by communication volume or by round
wall-clock.

Feasibility rules (all from the paper):

- ``n >= 3``: with n = 2 "the weight of the other peer can be easily
  inferred" (Sec. VII-A) and a 2-peer Raft tolerates no crash;
- ``k >= 2``: k = 1 hands every peer a complete share set (each peer
  could reconstruct every subtotal alone, so each peer's bundle to one
  receiver is the full secret-sharing of nothing);
- ``n - k >= sac_dropouts``: the required mid-round dropout tolerance;
- ``floor((n-1)/2) >= raft_crashes``: the required per-subgroup Raft
  tolerance;
- ``m >= 3`` when the FedAvg layer itself must tolerate a leader crash
  (majority of m needed, Sec. VII-D).
"""

from __future__ import annotations

from dataclasses import dataclass

from .costs import one_layer_sac_cost_bits, two_layer_ft_cost_from_topology
from .latency import two_layer_round_latency_ms
from .topology import Topology


@dataclass(frozen=True)
class PlanRequirements:
    """What the deployment must tolerate."""

    #: mid-SAC dropouts each subgroup must survive (n - k >= this)
    sac_dropouts: int = 1
    #: simultaneous crashes each subgroup's Raft must survive
    raft_crashes: int = 1
    #: whether the FedAvg layer must survive a leader crash (m >= 3)
    fedavg_leader_crash: bool = True

    def __post_init__(self) -> None:
        if self.sac_dropouts < 0 or self.raft_crashes < 0:
            raise ValueError("tolerances must be non-negative")


@dataclass(frozen=True)
class Plan:
    """One feasible configuration with its predicted costs."""

    n: int
    k: int
    m: int
    topology: Topology
    volume_bits: float
    latency_ms: float | None
    reduction_vs_baseline: float

    @property
    def volume_gb(self) -> float:
        return self.volume_bits / 1e9


def enumerate_plans(
    n_peers: int,
    w_params: int,
    requirements: PlanRequirements | None = None,
    bandwidth_bps: float | None = None,
) -> list[Plan]:
    """All feasible (n, k) plans for ``n_peers``, cheapest volume first."""
    req = requirements if requirements is not None else PlanRequirements()
    if n_peers < 3:
        raise ValueError("a secure deployment needs at least 3 peers")
    baseline = one_layer_sac_cost_bits(n_peers, w_params)
    plans: list[Plan] = []
    for n in range(3, n_peers + 1):
        if (n - 1) // 2 < req.raft_crashes:
            continue
        topo = Topology.by_group_size(n_peers, n)
        if min(topo.group_sizes) < n:
            continue
        m = topo.n_groups
        if req.fedavg_leader_crash and m < 3:
            continue
        k = n - req.sac_dropouts
        if k < 2:
            continue
        volume = two_layer_ft_cost_from_topology(topo, k, w_params)
        latency = None
        if bandwidth_bps is not None:
            latency = two_layer_round_latency_ms(
                topo, k, w_params, bandwidth_bps
            ).total_ms
        plans.append(
            Plan(
                n=n,
                k=k,
                m=m,
                topology=topo,
                volume_bits=volume,
                latency_ms=latency,
                reduction_vs_baseline=baseline / volume,
            )
        )
    plans.sort(key=lambda p: p.volume_bits)
    return plans


def recommend(
    n_peers: int,
    w_params: int,
    requirements: PlanRequirements | None = None,
    objective: str = "volume",
    bandwidth_bps: float | None = None,
    **kw,
) -> Plan:
    """The best feasible plan under the chosen objective.

    ``objective``: ``"volume"`` (bits per round) or ``"latency"``
    (round wall-clock; requires ``bandwidth_bps``).
    """
    if objective not in ("volume", "latency"):
        raise ValueError("objective must be 'volume' or 'latency'")
    if objective == "latency" and bandwidth_bps is None:
        raise ValueError("the latency objective needs bandwidth_bps")
    plans = enumerate_plans(
        n_peers, w_params, requirements, bandwidth_bps=bandwidth_bps, **kw
    )
    if not plans:
        raise ValueError(
            "no feasible configuration; relax the requirements or add peers"
        )
    if objective == "volume":
        return plans[0]
    return min(plans, key=lambda p: p.latency_ms)
