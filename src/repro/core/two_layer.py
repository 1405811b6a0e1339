"""Two-layer aggregation (paper Alg. 3).

Within each subgroup the peers run SAC — plain n-out-of-n or the
fault-tolerant k-out-of-n variant — and each subgroup leader forwards the
SAC average to the FedAvg leader, which computes the subgroup-size-
weighted mean (Alg. 3 line 10) and broadcasts it back through the
subgroup leaders.

Key invariant (tested): with every subgroup participating and no
dropouts, the two-layer aggregate equals the global mean of all peers'
models *exactly*, which is why Fig. 6's curves coincide with one-layer
SAC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..fl.fedavg import fedavg
from ..obs import runtime as _obs
from ..secure.errors import SacAbort, SacReconstructionError
from ..secure.fault_tolerant import fault_tolerant_sac
from ..secure.sac import DEFAULT_BITS_PER_PARAM
from .topology import Topology


@dataclass(frozen=True)
class AggregateResult:
    """Outcome of one two-layer aggregation round."""

    average: np.ndarray
    bits_sent: float
    messages_sent: int
    participating_groups: tuple[int, ...]
    #: peers whose models were counted (includes mid-round dropouts under
    #: fault-tolerant SAC — their shares were already distributed)
    included_peers: tuple[int, ...]
    #: subgroups whose SAC round failed outright (> n-k dropouts)
    failed_groups: tuple[int, ...] = ()

    @property
    def gigabits(self) -> float:
        return self.bits_sent / 1e9


class TwoLayerAggregator:
    """Executes Alg. 3 over a fixed :class:`~repro.core.topology.Topology`.

    Parameters
    ----------
    topology:
        Subgroup structure (leaders included).
    k:
        Reconstruction threshold for fault-tolerant SAC.  ``None`` runs
        plain n-out-of-n SAC in each subgroup (a subgroup with any dropout
        then aborts and is excluded from the round, like a slow subgroup).
    """

    def __init__(
        self,
        topology: Topology,
        k: int | None = None,
    ) -> None:
        if k is not None:
            smallest = min(topology.group_sizes)
            if not 1 <= k <= smallest:
                raise ValueError(
                    f"threshold k={k} must be in [1, {smallest}] "
                    "(the smallest subgroup size)"
                )
        self.topology = topology
        self.k = k

    @staticmethod
    def _group_failed(group: int, reason: str) -> None:
        if _obs.OBS.enabled:
            _obs.OBS.emit("agg.group_failed", group=group, reason=reason)

    def aggregate(
        self,
        models: Sequence[np.ndarray],
        rng: np.random.Generator,
        participating_groups: Sequence[int] | None = None,
        dropouts: Mapping[int, set[int]] | None = None,
        absent: set[int] | None = None,
        leaders: Sequence[int] | None = None,
    ) -> AggregateResult:
        """Run one aggregation round.

        Parameters
        ----------
        models:
            One flat weight vector per peer, indexed by peer id.
        rng:
            The round generator: every subgroup that runs SAC draws its
            members' seeds from it, in group order — at full
            participation the fan-out of the wire round, so with
            ``default_rng(seed)`` the average is that round's bit for bit.
        participating_groups:
            Subgroup indices whose SAC result reaches the FedAvg leader in
            time (Fig. 8's fraction p); default all.
        dropouts:
            ``{group_index: {peer ids}}`` crashing mid-SAC.  Requires
            ``k`` (fault-tolerant mode) for the group to survive; in plain
            mode the group aborts and is dropped from the round.
        absent:
            Peers that were already down when the round started — they
            neither train nor exchange shares; their subgroup aggregates
            over the present members only (with the threshold clamped to
            the present count).
        leaders:
            Per-group leader override (e.g. the current Raft leaders when
            driven by the two-layer Raft backend); defaults to the
            topology's static leaders.
        """
        topo = self.topology
        if len(models) != topo.n_peers:
            raise ValueError(
                f"expected {topo.n_peers} models, got {len(models)}"
            )
        if participating_groups is None:
            groups = list(range(topo.n_groups))
        else:
            groups = sorted(set(participating_groups))
            if not groups:
                raise ValueError("at least one subgroup must participate")
            if groups[0] < 0 or groups[-1] >= topo.n_groups:
                raise ValueError("subgroup index out of range")
        dropouts = dict(dropouts or {})
        absent = set(absent or ())
        if leaders is None:
            leaders = topo.leaders
        elif len(leaders) != topo.n_groups:
            raise ValueError("one leader per subgroup required")

        subgroup_means: list[np.ndarray] = []
        subgroup_weights: list[float] = []
        included: list[int] = []
        failed: list[int] = []
        bits = 0.0
        messages = 0

        with _obs.OBS.span("agg.two_layer", groups=len(groups), k=self.k):
            for gi in groups:
                members = tuple(p for p in topo.groups[gi] if p not in absent)
                if not members:
                    self._group_failed(gi, "all_absent")
                    failed.append(gi)
                    continue
                crashed_ids = dropouts.get(gi, set())
                bad = crashed_ids - set(members)
                if bad:
                    raise ValueError(
                        f"dropout peers {sorted(bad)} are not present members "
                        f"of group {gi}"
                    )
                crashed_pos = {members.index(p) for p in crashed_ids}
                if leaders[gi] not in members:
                    # No (alive) leader: the subgroup sits this round out.
                    self._group_failed(gi, "no_leader")
                    failed.append(gi)
                    continue
                leader_pos = members.index(leaders[gi])
                n = len(members)
                # Within the two-layer system SAC uses the leader-collection
                # pattern of Sec. VII-A — followers send their subtotal to the
                # subgroup leader, (n^2 - 1)|w| per failure-free round — which
                # is exactly k-out-of-n SAC with k = n.  A configured k < n
                # additionally replicates shares for fault tolerance.
                k_eff = min(self.k, n) if self.k is not None else n
                if leader_pos in crashed_pos:
                    # A crashed leader stalls the subgroup for this round (Raft
                    # re-election is the two-layer Raft backend's job).
                    self._group_failed(gi, "leader_crashed")
                    failed.append(gi)
                    continue
                try:
                    res = fault_tolerant_sac(
                        [models[p] for p in members], k_eff, rng,
                        leader=leader_pos, crashed=crashed_pos,
                    )
                except SacReconstructionError:
                    # The subgroup misses this round; the share-exchange phase
                    # had already been paid before the failure was detected.
                    w_bits_wasted = models[0].size * DEFAULT_BITS_PER_PARAM
                    bits += n * (n - 1) * (n - k_eff + 1) * w_bits_wasted
                    messages += n * (n - 1)
                    self._group_failed(gi, "reconstruction")
                    failed.append(gi)
                    continue
                subgroup_means.append(res.average)
                subgroup_weights.append(float(n))
                # Dropouts' shares were already distributed, so their models
                # are still counted in the subgroup average.
                included.extend(members)
                bits += res.bits_sent
                messages += res.messages_sent

        if not subgroup_means:
            raise SacAbort(set().union(*dropouts.values()) if dropouts else set())

        # FedAvg layer (Alg. 3 line 10): leaders upload their SAC result
        # (m'-1 transfers to the FedAvg leader) and receive the broadcast
        # back (m'-1): 2 (m' - 1) |w|.
        average = fedavg(subgroup_means, weights=subgroup_weights)
        w_bits = models[0].size * DEFAULT_BITS_PER_PARAM
        m_eff = len(subgroup_means)
        bits += 2 * (m_eff - 1) * w_bits
        messages += 2 * (m_eff - 1)

        # Broadcast the global model inside every participating subgroup:
        # sum_i (n_i - 1) |w|.  (The paper broadcasts to all peers; failed
        # groups receive it too once their leader recovers — we count the
        # participating groups, matching Eq. 4's m(n-1) term.)
        for gi in groups:
            if gi not in failed:
                size = sum(1 for p in topo.groups[gi] if p not in absent)
                bits += (size - 1) * w_bits
                messages += size - 1

        return AggregateResult(
            average=average,
            bits_sent=bits,
            messages_sent=messages,
            participating_groups=tuple(g for g in groups if g not in failed),
            included_peers=tuple(sorted(included)),
            failed_groups=tuple(g for g in groups if g in failed),
        )
