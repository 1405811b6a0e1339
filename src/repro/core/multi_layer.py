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
from typing import NamedTuple, Sequence

import numpy as np

from ..secure.batched import batched_divide
from ..secure.sac import DEFAULT_BITS_PER_PARAM, check_same_shape
from .costs import multi_layer_total_peers


class LayerWirePlan(NamedTuple):
    """One layer's wave endpoints, group-major: read-only int64 arrays.

    The layer's ``xl.share`` wave is ``share[0] -> share[1]``: every
    group's ``n (n-1)`` ordered member pairs ``(i, j != i)`` in
    owner-major order.  Its ``xl.subtotal`` wave is ``followers ->
    leaders`` (``leaders`` repeats each group's leader once per
    follower) and its ``xl.bcast`` wave the same pairs swapped.
    """

    share: np.ndarray  #: (2, G n (n-1)): src row, dst row
    followers: np.ndarray  #: (G (n-1),)
    leaders: np.ndarray  #: (G (n-1),)


class MultiLayerTopology:
    """The X-layer tree of Sec. VII-C.

    Peer ids are assigned breadth-first: the topmost subgroup is
    ``0..n-1``, each subsequent layer appends its new peers in order.
    The layer-``k`` leaders (``k >= 2``) are therefore the peers
    introduced at layer ``k - 1`` in id order, and every group's
    followers are a contiguous id range — so sizes and
    :meth:`member_matrix` are closed-form.
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
        self._member_matrix_cache: dict[int, np.ndarray] = {}
        self._wire_plan_cache: dict[int, LayerWirePlan] = {}

    @property
    def n_peers(self) -> int:
        return self._first[-1]

    @property
    def n_groups(self) -> int:
        # The top group, plus one led by every peer above the last layer.
        return 1 + self._first[self.depth - 1]

    def member_matrix(self, layer: int) -> np.ndarray:
        """All layer-``layer`` subgroups as one ``(groups, n)`` id array.

        Row ``g`` lists group ``g``'s members, leader in column 0, then
        its followers.  Cached per layer.
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

    def wire_plan(self, layer: int) -> LayerWirePlan:
        """The src/dst ids of layer ``layer``'s waves, derived from
        :meth:`member_matrix`.  Built on first use and cached per layer,
        so rounds repeated on one topology object ship the same arrays;
        they are read-only because every such round shares them.
        """
        plan = self._wire_plan_cache.get(layer)
        if plan is None:
            members = self.member_matrix(layer)
            g, n = members.shape
            share = np.empty((2, g * n * (n - 1)), dtype=np.int64)
            # Ordered pairs (i, j != i), owner-major: src row i, dst row j.
            # The columns are in range, and mode="clip" writes straight
            # into ``out`` where the default mode buffers a copy.
            for row, pair in zip(share, np.where(~np.eye(n, dtype=bool))):
                members.take(pair, axis=1, out=row.reshape(g, -1),
                             mode="clip")
            plan = LayerWirePlan(
                share=share,
                followers=members[:, 1:].reshape(-1),
                leaders=np.repeat(members[:, 0], n - 1),
            )
            for ids in plan:
                ids.setflags(write=False)
            self._wire_plan_cache[layer] = plan
        return plan


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
) -> MultiLayerResult:
    """Aggregate ``models`` over the X-layer tree.

    Every layer runs SAC and the measured cost matches Eq. 10:
    ``(N - 1)(n + 2) |w|``.

    This is the reference :func:`~repro.core.xlayer_wire.run_xlayer_wire_round`
    is held to bit for bit, so it shares nothing with it: a layer at a
    time over :meth:`~MultiLayerTopology.member_matrix`, every share
    materialised, owners then indices added with explicit full-slab adds.
    """
    n, n_peers = topology.n, topology.n_peers
    if len(models) != n_peers:
        raise ValueError(f"expected {n_peers} models, got {len(models)}")
    check_same_shape(models)
    models = np.array(models, dtype=np.float64)  # a private copy
    # (sum, count) carried by each peer; leaders of deeper groups replace
    # theirs with the subtree aggregate before their own group runs.
    sums = models.reshape(n_peers, -1)
    counts = np.ones(n_peers, dtype=np.int64)
    w_bits = float(sums.shape[1] * DEFAULT_BITS_PER_PARAM)

    bits = 0.0
    n_aggregations = 0
    for layer in range(topology.depth, 0, -1):  # bottom-up: deepest first
        members = topology.member_matrix(layer)  # (G, n)
        g = len(members)
        # SAC over the members' sums: each member splits its value into n
        # shares (the plain materialised Alg. 1 split, drawn group by
        # group, member by member), exchanges them (n (n-1) transfers)
        # and the followers send subtotals to the leader (n-1):
        # (n^2 - 1) share-sized messages per group.
        shares = batched_divide(sums[members].reshape(g * n, -1), n, rng)
        subtotals = _add_in_order(shares.reshape(g, n, n, -1))  # (G, n, d)
        bits += g * (n * n - 1) * w_bits
        leaders = members[:, 0]
        sums[leaders] = _add_in_order(subtotals)
        counts[leaders] = counts[members].sum(axis=1)
        n_aggregations += g

    # Distribute the final model to every other peer: (N - 1) |w|.
    bits += (n_peers - 1) * w_bits
    assert counts[0] == n_peers
    return MultiLayerResult(
        average=(sums[0] / counts[0]).reshape(models.shape[1:]),
        bits_sent=bits,
        n_aggregations=n_aggregations,
    )


def _add_in_order(slabs: np.ndarray) -> np.ndarray:
    """``slabs[:, 0] + slabs[:, 1] + ...``, left to right, as a new array."""
    total = slabs[:, 0].copy()
    for i in range(1, slabs.shape[1]):
        np.add(total, slabs[:, i], out=total)
    return total
