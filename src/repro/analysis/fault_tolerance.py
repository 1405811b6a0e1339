"""Closed-form fault-tolerance thresholds and a Monte Carlo validator.

Paper Sec. VII-D:

- each SAC-layer subgroup of ``n`` peers tolerates ``floor((n-1)/2)``
  crashes (Raft majority);
- the FedAvg layer of ``m`` members tolerates ``floor((m-1)/2)``;
- optimistically — every subgroup leader stays up and only followers
  crash — the system survives ``m * (floor((n-1)/2) + 1)`` faults: a
  subgroup whose leader is alive keeps *aggregating* even when so many
  followers are down that a re-election would be impossible (the leader
  needs no quorum to keep its role, only to commit config entries);
- the system stops when a majority of FedAvg-layer members is gone.

``system_operational`` encodes the aggregation-availability semantics
used throughout Sec. V; the Monte Carlo bench randomizes crash patterns
against it.
"""

from __future__ import annotations

import numpy as np

from ..core.topology import Topology


def subgroup_tolerance(n: int) -> int:
    """Crashes one subgroup's Raft quorum survives: ``floor((n-1)/2)``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (n - 1) // 2


def fedavg_layer_tolerance(m: int) -> int:
    """Crashes the FedAvg-layer Raft survives: ``floor((m-1)/2)``."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return (m - 1) // 2


def optimistic_max_faults(m: int, n: int) -> int:
    """Sec. VII-D's optimistic bound: ``m (floor((n-1)/2) + 1)``.

    All leaders stay alive; in each subgroup every crash beyond the Raft
    tolerance still leaves the (alive) leader aggregating, up to all
    ``n - 1`` followers... the paper counts ``floor((n-1)/2) + 1`` per
    subgroup as the certified bound (followers may crash *while keeping
    re-election possible after one more leader failure*).
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    return m * (subgroup_tolerance(n) + 1)


def system_operational(topology: Topology, crashed: set[int]) -> bool:
    """Whether aggregation can proceed under ``crashed`` peers.

    Conditions (Sec. V semantics):

    1. The FedAvg layer can field a leader: a majority of its members
       (the subgroup leaders) is alive.
    2. Every subgroup can field a leader: its current leader is alive, or
       a majority of the subgroup is alive to elect a new one.
    """
    fedavg_members = set(topology.leaders)
    alive_fed = [p for p in fedavg_members if p not in crashed]
    if len(alive_fed) < len(fedavg_members) // 2 + 1:
        return False
    for gi, group in enumerate(topology.groups):
        leader = topology.leaders[gi]
        if leader not in crashed:
            continue
        alive = [p for p in group if p not in crashed]
        if len(alive) < len(group) // 2 + 1:
            return False
    return True


def tolerance_curve(
    topology: Topology,
    rng: np.random.Generator,
    trials_per_point: int = 200,
) -> list[tuple[int, float]]:
    """Monte Carlo availability: fraction of random f-crash sets that
    leave the system operational, for f = 0 .. N."""
    n_peers = topology.n_peers
    peers = np.arange(n_peers)
    curve: list[tuple[int, float]] = []
    for f in range(n_peers + 1):
        ok = 0
        for _ in range(trials_per_point):
            crashed = set(rng.choice(peers, size=f, replace=False).tolist())
            if system_operational(topology, crashed):
                ok += 1
        curve.append((f, ok / trials_per_point))
    return curve
