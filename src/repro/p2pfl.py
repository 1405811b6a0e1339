"""The complete P2P federated-learning system — aggregation over two-layer Raft.

This module glues the two halves of the paper together the way Sec. VI
describes the implementation: the **federated-learning part** (local
training + two-layer SAC/FedAvg aggregation) runs on top of the **Raft
part** (two-layer Raft on the simulated network), which supplies the
current subgroup leaders and recovers them after crashes.

Typical use::

    system = P2PFLSystem(model_factory, dataset, P2PFLConfig(...))
    system.run_rounds(5)
    system.crash_peer(system.raft.subgroup_leader(0))   # leader crash!
    system.run_rounds(5)                                # keeps training

Crashed peers neither train nor exchange shares; a subgroup whose Raft
leader is still being re-elected sits a round out (exactly the "slow
subgroup" behaviour of Fig. 8), and rejoins once two-layer Raft has
healed it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Optional

import numpy as np

from .core.session import build_peers, evaluate_round, local_updates
from .core.topology import Topology
from .core.two_layer import TwoLayerAggregator
from .data.synthetic import Dataset
from .fl.metrics import MetricsHistory, RoundMetrics
from .nn.model import Sequential
from .nn.serialize import get_flat_params
from .secure.errors import SacAbort
from .twolayer_raft.system import TwoLayerRaftSystem

#: virtual milliseconds of Raft time between FL rounds
ROUND_INTERVAL_MS = 1_000.0


@dataclass(frozen=True)
class P2PFLConfig:
    """Configuration of the integrated system (defaults per Sec. VI)."""

    n_peers: int = 9
    group_size: int = 3
    threshold: int | None = 2
    lr: float = 1e-4
    seed: int = 0
    #: IID shards and minibatches of 50 (Sec. VI-A1)
    distribution: ClassVar[str] = "iid"
    batch_size: ClassVar[int] = 50


class P2PFLSystem:
    """Federated learning backed by the two-layer Raft (the full paper system)."""

    def __init__(
        self,
        model_factory: Callable[[np.random.Generator], Sequential],
        dataset: Dataset,
        config: P2PFLConfig,
    ) -> None:
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.dataset = dataset
        self.topology = Topology.by_group_size(config.n_peers, config.group_size)

        # Raft backend (leader election + failover).
        self.raft = TwoLayerRaftSystem(self.topology, seed=config.seed)
        self.raft.stabilize()

        self.peers, self._eval_model = build_peers(
            model_factory, dataset, config, self.rng
        )
        self.global_weights = get_flat_params(self.peers[0].model).copy()
        self.aggregator = TwoLayerAggregator(self.topology, k=config.threshold)
        self.history = MetricsHistory()
        self._round = 0

    # ----------------------------------------------------------------- faults
    def crash_peer(self, peer_id: int) -> None:
        """Crash a peer: its Raft endpoints die and it stops training."""
        self.raft.crash(peer_id)

    def recover_peer(self, peer_id: int) -> None:
        self.raft.recover(peer_id)

    def crashed_peers(self) -> set[int]:
        return {
            pid for pid in range(self.config.n_peers)
            if self.raft.network.is_crashed(pid)
        }

    def current_leaders(self) -> list[Optional[int]]:
        """Per-subgroup Raft leaders right now (None while re-electing)."""
        return [
            self.raft.subgroup_leader(gi)
            for gi in range(self.topology.n_groups)
        ]

    # ----------------------------------------------------------------- rounds
    def run_round(self) -> RoundMetrics:
        """One communication round: Raft time advances, alive peers train,
        subgroups with a leader aggregate, the global model updates."""
        self.raft.run_for(ROUND_INTERVAL_MS)
        crashed = self.crashed_peers()
        leaders = self.current_leaders()

        train_losses, models = local_updates(
            self.peers, self.global_weights, down=crashed
        )

        # Subgroups whose Raft leader is up.
        ready = [
            gi
            for gi, leader in enumerate(leaders)
            if leader is not None and leader not in crashed
        ]
        effective_leaders = [
            leader if leader is not None else self.topology.leaders[gi]
            for gi, leader in enumerate(leaders)
        ]

        comm_bits = 0.0
        if ready:
            try:
                result = self.aggregator.aggregate(
                    models,
                    self.rng,
                    participating_groups=ready,
                    absent=crashed,
                    leaders=effective_leaders,
                )
                self.global_weights = result.average
                comm_bits = result.bits_sent
            except SacAbort:
                pass  # every subgroup failed; keep the old global model

        metrics = evaluate_round(
            self._eval_model, self.dataset, self.global_weights, self._round,
            train_losses, comm_bits,
        )
        self.history.append(metrics)
        self._round += 1
        return metrics

    def run_rounds(self, n: int) -> MetricsHistory:
        for _ in range(n):
            self.run_round()
        return self.history
