"""The planner: subgroup shapes (n, k, m) by Eq. 5, under Sec. VII-D.

One scan over the group size ``n`` (:func:`_scan`) serves both entry
points: :func:`enumerate_plans` lists every feasible deployment of N
peers, cheapest volume first (what ``repro plan`` prints), and
:func:`plan_reshard` repairs a campaign's grouping after churn with the
cheapest shape for the survivors.  The scan builds no
:class:`~repro.core.topology.Topology`: ``Topology.by_group_size(N, n)``
has ``m = N // n`` groups, ``N mod m`` of them one member larger than
``N // m``, and Eq. 5 and the round latency are read off that size
multiset, so a candidate costs O(1).

Sec. VII-D: a subgroup of ``n`` tolerates ``floor((n-1)/2)`` crashes
(Raft majority) and the FedAvg layer of ``m`` leaders ``floor((m-1)/2)``;
with every leader up, a subgroup keeps aggregating past its quorum, so
the system optimistically survives ``m * (floor((n-1)/2) + 1)`` faults;
it stops when a majority of the FedAvg layer is gone.  A deployment
needs ``n >= 3`` (with n = 2 "the weight of the other peer can be easily
inferred", Sec. VII-A), ``k >= 2`` (k = 1 hands every peer a complete
share set), ``n - k`` at least the required dropouts, and the required
Raft tolerance in each subgroup (and in the FedAvg layer).

Re-shards are expressed over *stable* peer ids (campaign identities that
survive churn); the emitted topology is over dense ids ``0..N-1`` (rank
in the sorted member list), which the wire round and the Raft deployment
consume.  A returned plan never holds a group smaller than ``k``
(property-tested); fewer than ``k`` survivors raise :class:`ReshardError`.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .costs import one_layer_sac_cost_bits, two_layer_ft_cost_from_sizes
from .latency import two_layer_round_latency_from_sizes
from .topology import Topology

#: the widest group-size skew a grouping may have before it is resharded.
BALANCE_BOUND = 2


# ------------------------------------------------ Sec. VII-D thresholds
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
    """Sec. VII-D's optimistic bound: ``m (floor((n-1)/2) + 1)``: all
    leaders stay alive and each subgroup loses up to its Raft tolerance
    plus one follower."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    return m * (subgroup_tolerance(n) + 1)


def system_operational(topology: Topology, crashed: set[int]) -> bool:
    """Whether aggregation can proceed under ``crashed`` peers (Sec. V):
    a majority of the FedAvg layer (the subgroup leaders) is alive, and
    every subgroup's leader is alive or a majority of it can elect one."""
    fedavg_members = set(topology.leaders)
    alive_fed = [p for p in fedavg_members if p not in crashed]
    if len(alive_fed) < len(fedavg_members) // 2 + 1:
        return False
    for gi, group in enumerate(topology.groups):
        if topology.leaders[gi] not in crashed:
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
    peers = np.arange(topology.n_peers)
    curve: list[tuple[int, float]] = []
    for f in range(topology.n_peers + 1):
        ok = 0
        for _ in range(trials_per_point):
            crashed = set(rng.choice(peers, size=f, replace=False).tolist())
            if system_operational(topology, crashed):
                ok += 1
        curve.append((f, ok / trials_per_point))
    return curve


# ------------------------------------------------------ the Eq. 5 scan
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


@dataclass(frozen=True, slots=True)
class Plan:
    """One candidate shape with its predicted costs."""

    n: int
    k: int
    m: int
    volume_bits: float
    latency_ms: float | None
    reduction_vs_baseline: float

    @property
    def volume_gb(self) -> float:
        return self.volume_bits / 1e9


def _group_sizes(n_peers: int, m: int) -> dict[int, int]:
    """The size multiset (size -> count, largest first) of ``n_peers``
    spread over ``m`` groups as :class:`Topology` spreads them."""
    base, extra = divmod(n_peers, m)
    return {base + 1: extra, base: m - extra} if extra else {base: m}


def _scan(
    n_peers: int,
    w_params: int,
    n_min: int,
    threshold: Callable[[int, int], int | None],
    bandwidth_bps: float | None,
) -> Iterator[Plan]:
    """One candidate per group count ``m`` that some ``n = n_min ..
    n_peers`` gives ``Topology.by_group_size(n_peers, n)``, in order of
    n: every such n builds the same groups, so the candidate's n is the
    smallest group, ``n_peers // m``.  ``threshold(n, m)`` is the
    candidate's k, or None to skip it."""
    baseline = one_layer_sac_cost_bits(n_peers, w_params)
    n = n_min
    while n <= n_peers:
        m = n_peers // n
        n = n_peers // m
        k = threshold(n, m)
        if k is not None:
            sizes = _group_sizes(n_peers, m)
            volume = two_layer_ft_cost_from_sizes(sizes, k, w_params)
            latency = None
            if bandwidth_bps is not None:
                latency = two_layer_round_latency_from_sizes(
                    sizes, k, w_params, bandwidth_bps
                ).total_ms
            yield Plan(n=n, k=k, m=m, volume_bits=volume, latency_ms=latency,
                       reduction_vs_baseline=baseline / volume)
        n += 1


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

    def threshold(n: int, m: int) -> int | None:
        k = n - req.sac_dropouts
        if (k < 2 or subgroup_tolerance(n) < req.raft_crashes
                or req.fedavg_leader_crash and fedavg_layer_tolerance(m) < 1):
            return None
        return k

    plans = list(_scan(n_peers, w_params, 3, threshold, bandwidth_bps))
    plans.sort(key=lambda p: p.volume_bits)
    return plans


# -------------------------------------------------------- re-sharding
class ReshardError(ValueError):
    """The surviving membership cannot satisfy the k-of-n floor."""


@dataclass(frozen=True)
class Move:
    """One peer changing subgroup (stable ids; ``from_group=-1`` = joiner)."""

    peer: int
    from_group: int
    to_group: int


@dataclass(frozen=True)
class ReshardPlan:
    """A typed rebalancing decision.

    ``groups`` holds stable peer ids; ``topology`` is the same grouping
    over dense ids (rank in the sorted ``members`` tuple).
    """

    members: tuple[int, ...]
    groups: tuple[tuple[int, ...], ...]
    topology: Topology
    moves: tuple[Move, ...]
    reason: str
    predicted_cost_bits: float
    previous_cost_bits: float | None

    @property
    def cost_delta_bits(self) -> float | None:
        """Predicted bits/round change (negative = cheaper); None when the
        pre-reshard grouping was infeasible and had no defined cost."""
        if self.previous_cost_bits is None:
            return None
        return self.predicted_cost_bits - self.previous_cost_bits

    def describe(self) -> str:
        delta = self.cost_delta_bits
        cost = (
            f"{delta / 1e6:+.2f} Mb/round" if delta is not None
            else "previous grouping infeasible"
        )
        return (
            f"reshard[{self.reason}]: {len(self.moves)} move(s) -> "
            f"{len(self.groups)} group(s) of {self.topology.group_sizes}, "
            f"{cost}"
        )


def needs_reshard(groups: tuple[tuple[int, ...], ...], k: int) -> str | None:
    """Why ``groups`` must be resharded, or None if it is acceptable.

    Triggers: any group below the k-of-n floor, a group-size skew wider
    than :data:`BALANCE_BOUND`, or no groups at all (every member left).
    """
    if not groups:
        return "no groups"
    sizes = [len(g) for g in groups]
    if min(sizes) < k:
        return f"group below k-of-n floor (size {min(sizes)} < k={k})"
    if max(sizes) - min(sizes) > BALANCE_BOUND:
        return (
            f"unbalanced groups (sizes {max(sizes)}..{min(sizes)} exceed "
            f"balance bound {BALANCE_BOUND})"
        )
    return None


def dense_topology(groups: tuple[tuple[int, ...], ...]) -> Topology:
    """The dense-id :class:`Topology` for a stable-id grouping.

    Dense id = rank of the stable id among all members; each group's
    first (lowest stable id) member leads it.
    """
    members = sorted(pid for g in groups for pid in g)
    rank = {pid: i for i, pid in enumerate(members)}
    dense = tuple(tuple(rank[pid] for pid in sorted(g)) for g in groups)
    return Topology(groups=dense, leaders=tuple(g[0] for g in dense))


def plan_reshard(
    groups: tuple[tuple[int, ...], ...],
    k: int,
    reason: str | None = None,
    w_params: int = 1024,
) -> ReshardPlan:
    """Rebalance a stable-id grouping into the cheapest (Eq. 5) shape
    with groups of at least ``k`` (and 3, when that many survive).

    Raises :class:`ReshardError` when fewer than ``k`` (or fewer than 2)
    peers survive — no grouping can satisfy the floor then.
    """
    members = sorted(pid for g in groups for pid in g)
    n_alive = len(members)
    if n_alive < max(k, 2):
        raise ReshardError(
            f"{n_alive} surviving peer(s) cannot satisfy the k-of-n floor "
            f"(k={k})"
        )
    if reason is None:
        reason = needs_reshard(groups, k) or "requested"

    n_min = max(k, 3) if n_alive >= max(k, 3) else k
    best = min(_scan(n_alive, w_params, n_min, lambda n, m: k, None),
               key=lambda p: p.volume_bits)
    sizes = [size for size, count in _group_sizes(n_alive, best.m).items()
             for _ in range(count)]

    # Minimal-move assignment: match the new groups (largest first) to
    # the old groups in descending size order, keep each matched core in
    # place, and fill deficits from the overflow pool in stable order.
    old_order = sorted(
        range(len(groups)), key=lambda gi: (-len(groups[gi]), gi)
    )
    pool: list[int] = []
    new_groups: list[list[int]] = []
    matched_old: list[int] = []
    for slot, size in enumerate(sizes):
        if slot < len(old_order):
            src = old_order[slot]
            core = sorted(groups[src])
            new_groups.append(core[:size])
            pool.extend(core[size:])
            matched_old.append(src)
        else:
            new_groups.append([])
            matched_old.append(-1)
    # Old groups beyond the new group count dissolve entirely into the pool.
    matched_set = set(matched_old)
    for gi, group in enumerate(groups):
        if gi not in matched_set:
            pool.extend(group)
    pool.sort()
    for gi, size in enumerate(sizes):
        while len(new_groups[gi]) < size:
            new_groups[gi].append(pool.pop(0))
        new_groups[gi].sort()
    assert not pool, "reshard assignment lost members"

    old_group_of = {
        pid: gi for gi, group in enumerate(groups) for pid in group
    }
    moves = tuple(
        Move(peer=pid, from_group=old_group_of.get(pid, -1), to_group=gi)
        for gi, group in enumerate(new_groups)
        for pid in group
        if old_group_of.get(pid, -1) != matched_old[gi]
    )

    stable_groups = tuple(tuple(g) for g in new_groups)
    previous = None
    if groups and min(len(g) for g in groups) >= k:
        previous = two_layer_ft_cost_from_sizes(
            Counter(map(len, groups)), k, w_params
        )
    return ReshardPlan(
        members=tuple(members),
        groups=stable_groups,
        topology=dense_topology(stable_groups),
        moves=moves,
        reason=reason,
        predicted_cost_bits=best.volume_bits,
        previous_cost_bits=previous,
    )
