"""X-layer aggregation (paper Sec. VII-C).

Tree construction follows the paper's convention: the topmost layer is a
single subgroup of ``n`` peers; every member of a layer-x subgroup leads
one subgroup in layer x+1 (the topmost leader doubles as a second-layer
leader, and nobody leads more than two layers), so the number of *new*
peers introduced at layer k is ``n (n-1)^{k-1}`` and Eq. 6 gives the
total.

Aggregation proceeds bottom-up.  Each subgroup runs SAC over its
members' values; because a member that leads a deeper subgroup
contributes its *subtree aggregate* rather than a raw model, the values
are carried as ``(sum, count)`` pairs so that the final result is the
exact unweighted mean over all N peers.  SAC operates on sums — a linear
function — so sharing ``(sum, count)`` instead of the mean leaks nothing
additional and keeps the result exact for uneven subtrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..secure.sac import DEFAULT_BITS_PER_PARAM
from ..secure.additive import divide
from .costs import multi_layer_total_peers


@dataclass(frozen=True)
class _Group:
    layer: int
    leader: int
    members: tuple[int, ...]  # peer ids; members[0] == leader


class MultiLayerTopology:
    """The X-layer tree of Sec. VII-C.

    Peer ids are assigned breadth-first: the topmost subgroup is
    ``0..n-1``, each subsequent layer appends its new peers in order.
    The layer-``k`` leaders (``k >= 2``) are therefore the peers
    introduced at layer ``k - 1`` in id order, and every group's
    followers are a contiguous id range — so sizes and
    :meth:`member_matrix` are closed-form, and the per-group objects
    (``groups``) are only built for callers that walk them.
    """

    def __init__(self, n: int, depth: int) -> None:
        if n < 2:
            raise ValueError("multi-layer trees need n >= 2")
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.n = n
        self.depth = depth
        # _first[k]: peers in layers 1..k (Eq. 6), which is also the id of
        # the first peer introduced at layer k + 1.
        self._first = [
            multi_layer_total_peers(n, k) for k in range(depth + 1)
        ]
        self._groups: list[_Group] | None = None
        self._member_matrix_cache: dict[int, np.ndarray] = {}

    @property
    def n_peers(self) -> int:
        return self._first[-1]

    @property
    def n_groups(self) -> int:
        # The top group, plus one led by every peer above the last layer.
        return 1 + self._first[self.depth - 1]

    @property
    def groups(self) -> list[_Group]:
        """Every subgroup, top layer first (built on first use)."""
        if self._groups is None:
            self._groups = [
                g for layer in range(1, self.depth + 1)
                for g in self.groups_at(layer)
            ]
        return self._groups

    def groups_at(self, layer: int) -> list[_Group]:
        return [
            _Group(layer=layer, leader=row[0], members=tuple(row))
            for row in self.member_matrix(layer).tolist()
        ]

    def member_matrix(self, layer: int) -> np.ndarray:
        """All layer-``layer`` subgroups as one ``(groups, n)`` id array.

        Row ``g`` is ``groups_at(layer)[g].members`` (leader in column
        0), the shape the vectorized X-layer wire round consumes.
        Cached per layer.
        """
        if not 1 <= layer <= self.depth:
            raise ValueError(f"layer must be in 1..{self.depth}")
        cached = self._member_matrix_cache.get(layer)
        if cached is None:
            n, first = self.n, self._first
            if layer == 1:  # peer 0 leads the rest of the top group
                lead0, foll0, g = 0, 1, 1
            else:
                lead0, foll0 = first[layer - 2], first[layer - 1]
                g = foll0 - lead0
            cached = np.empty((g, n), dtype=np.int64)
            cached[:, 0] = np.arange(lead0, lead0 + g)
            cached[:, 1:] = np.arange(
                foll0, foll0 + g * (n - 1)
            ).reshape(g, n - 1)
            self._member_matrix_cache[layer] = cached
        return cached


@dataclass(frozen=True)
class MultiLayerResult:
    average: np.ndarray
    bits_sent: float
    n_aggregations: int

    @property
    def gigabits(self) -> float:
        return self.bits_sent / 1e9


def multi_layer_aggregate(
    topology: MultiLayerTopology,
    models: Sequence[np.ndarray],
    rng: np.random.Generator,
    bits_per_param: int = DEFAULT_BITS_PER_PARAM,
    method_for_layer: Callable[[int], str] | None = None,
) -> MultiLayerResult:
    """Aggregate ``models`` over the X-layer tree.

    By default every layer runs SAC and the measured cost matches Eq. 10:
    ``(N - 1)(n + 2) |w|``.  ``method_for_layer(layer) -> 'sac'|'fedavg'``
    selects the aggregation per layer — the paper's closing remark in
    Sec. VII-C: *"the communication complexity will be further reduced if
    other aggregation methods with less communication like FedAvg are
    used instead of SAC"* (a FedAvg group costs ``(n-1)|w|`` instead of
    ``(n^2-1)|w|``, at the price of exposing members' subtree aggregates
    to the group leader).
    """
    n = topology.n
    if len(models) != topology.n_peers:
        raise ValueError(
            f"expected {topology.n_peers} models, got {len(models)}"
        )
    if method_for_layer is None:
        method_for_layer = lambda layer: "sac"
    first = np.asarray(models[0], dtype=np.float64)
    w_bits = float(first.size * bits_per_param)

    # (sum, count) carried by each peer; leaders of deeper groups replace
    # theirs with the subtree aggregate before their own group runs.
    sums: dict[int, np.ndarray] = {
        p: np.asarray(m, dtype=np.float64).copy() for p, m in enumerate(models)
    }
    counts: dict[int, int] = {p: 1 for p in range(topology.n_peers)}

    bits = 0.0
    n_aggregations = 0
    # Bottom-up: deepest layer first.
    for layer in range(topology.depth, 0, -1):
        method = method_for_layer(layer)
        if method not in ("sac", "fedavg"):
            raise ValueError(f"unknown aggregation method {method!r}")
        for group in topology.groups_at(layer):
            members = group.members
            size = len(members)
            stacked = np.stack([sums[p] for p in members])
            if method == "sac":
                # SAC over the members' sums: each member splits its
                # value into `size` shares, exchanges them
                # (size*(size-1) transfers) and the followers send
                # subtotals to the leader (size-1): (size^2 - 1)
                # share-sized messages per aggregation.
                shares = np.stack(
                    [divide(row, size, rng) for row in stacked]
                )  # exercises the real share math
                subtotals = shares.sum(axis=0)
                agg_sum = subtotals.sum(axis=0)
                bits += (size * size - 1) * w_bits
            else:
                # Plain FedAvg: followers upload their value to the
                # leader, (size - 1) transfers.
                agg_sum = stacked.sum(axis=0)
                bits += (size - 1) * w_bits
            agg_count = sum(counts[p] for p in members)
            n_aggregations += 1
            leader = group.leader
            sums[leader] = agg_sum
            counts[leader] = agg_count

    total = topology.n_peers
    # Distribute the final model to every other peer: (N - 1) |w|.
    bits += (total - 1) * w_bits
    average = sums[0] / counts[0]
    assert counts[0] == total
    return MultiLayerResult(
        average=average, bits_sent=bits, n_aggregations=n_aggregations
    )
