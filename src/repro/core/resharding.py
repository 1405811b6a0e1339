"""Dynamic re-sharding: rebalance subgroups after membership churn.

Between campaign rounds peers join, leave, and rejoin; the subgroup
assignment that was cost-optimal for the old membership can drift below
the k-of-n fault-tolerance floor (a group with fewer than ``k`` members
cannot run k-of-n SAC at all) or become badly unbalanced (skewed groups
pay the largest group's latency and weaken the smallest group's
tolerance).  :func:`plan_reshard` repairs both, emitting a typed
:class:`ReshardPlan`: the minimal member moves, the new dense
:class:`~repro.core.topology.Topology`, and the predicted communication
cost delta from the Eq. 5 closed forms (:mod:`repro.core.costs`) — the
same objective :mod:`repro.core.planner` ranks deployments by.

Grouping here is expressed over *stable* peer ids (campaign identities
that survive churn); the emitted topology is over dense ids ``0..N-1``
(position in the sorted member list), which is what the wire round and
the Raft deployment consume.

Invariant (property-tested): a returned plan never contains a group
smaller than ``k`` — churn that leaves fewer than ``k`` peers alive in
total is not reshardable and raises the typed :class:`ReshardError`
instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .costs import two_layer_ft_cost_from_topology
from .topology import Topology

#: the widest group-size skew a grouping may have before it is resharded.
BALANCE_BOUND = 2

__all__ = [
    "Move",
    "ReshardPlan",
    "ReshardError",
    "needs_reshard",
    "plan_reshard",
    "dense_topology",
]


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


def _target_group_size(n_alive: int, k: int, w_params: int) -> int:
    """The cheapest (Eq. 5) feasible group size for ``n_alive`` members."""
    floor = max(k, 3) if n_alive >= max(k, 3) else k
    best_n, best_cost = floor, None
    for n in range(floor, n_alive + 1):
        topo = Topology.by_group_size(n_alive, n)
        cost = two_layer_ft_cost_from_topology(topo, k, w_params)
        if best_cost is None or cost < best_cost:
            best_n, best_cost = n, cost
    return best_n


def plan_reshard(
    groups: tuple[tuple[int, ...], ...],
    k: int,
    reason: str | None = None,
    w_params: int = 1024,
) -> ReshardPlan:
    """Rebalance a stable-id grouping into the cheapest feasible shape.

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

    n_target = _target_group_size(n_alive, k, w_params)
    sizes = sorted(
        Topology.by_group_size(n_alive, n_target).group_sizes, reverse=True
    )

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
    topology = dense_topology(stable_groups)
    predicted = two_layer_ft_cost_from_topology(topology, k, w_params)
    previous = None
    if groups and min(len(g) for g in groups) >= k:
        previous = two_layer_ft_cost_from_topology(
            dense_topology(tuple(tuple(sorted(g)) for g in groups)),
            k, w_params,
        )
    return ReshardPlan(
        members=tuple(members),
        groups=stable_groups,
        topology=topology,
        moves=moves,
        reason=reason,
        predicted_cost_bits=predicted,
        previous_cost_bits=previous,
    )
