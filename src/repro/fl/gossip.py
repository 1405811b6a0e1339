"""Gossip-averaging P2P FL — the BrainTorrent-style related-work baseline.

Sec. II-A discusses BrainTorrent, where peers exchange models directly
with each other without any aggregation hierarchy (and without privacy:
"semi-honest participants can infer the dataset from weight tensors").
This module implements the canonical form of that family — push-pull
gossip averaging — as a comparison baseline:

each round, every peer (1) trains locally, then (2) contacts ``fanout``
random partners and pairwise-averages models with them.  There is no
global model; evaluation reports the mean test accuracy over all peer
models.  Communication per round is ``2 * fanout * N * |w|`` (each
contact is a model push plus a model pull).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..data.partition import peer_datasets
from ..data.synthetic import Dataset
from ..nn.model import Sequential
from ..nn.serialize import get_flat_params
from ..secure.sac import DEFAULT_BITS_PER_PARAM
from .metrics import MetricsHistory, RoundMetrics
from .peer import FLPeer


@dataclass(frozen=True)
class GossipConfig:
    """Hyper-parameters of a gossip-averaging run."""

    n_peers: int = 10
    rounds: int = 50
    #: random partners contacted by each peer per round
    fanout: int = 1
    distribution: str = "iid"
    epochs: int = 1
    batch_size: int = 50
    lr: float = 1e-4
    bits_per_param: int = DEFAULT_BITS_PER_PARAM
    seed: int = 0
    #: peers whose accuracy is sampled for evaluation (all if None; a
    #: subsample keeps large runs fast)
    eval_peers: int | None = 5

    def __post_init__(self) -> None:
        if self.n_peers < 2:
            raise ValueError("gossip needs at least two peers")
        if self.fanout < 1 or self.fanout >= self.n_peers:
            raise ValueError("fanout must be in [1, n_peers)")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")


def run_gossip_session(
    model_factory: Callable[[np.random.Generator], Sequential],
    dataset: Dataset,
    config: GossipConfig,
) -> MetricsHistory:
    """Run gossip-averaging FL; returns per-round metric history.

    ``test_accuracy`` / ``test_loss`` are means over (a sample of) the
    peers' individual models — there is no shared global model.
    """
    rng = np.random.default_rng(config.seed)
    shards = peer_datasets(dataset, config.n_peers, config.distribution, rng)
    peers = [
        FLPeer(
            pid,
            model_factory(rng),
            x,
            y,
            np.random.default_rng(rng.integers(2**63)),
            lr=config.lr,
            batch_size=config.batch_size,
        )
        for pid, (x, y) in enumerate(shards)
    ]
    # Common initialization, as in the server-based runs.
    init = get_flat_params(peers[0].model).copy()
    for peer in peers[1:]:
        peer.set_weights(init)

    n_eval = (
        config.n_peers
        if config.eval_peers is None
        else min(config.eval_peers, config.n_peers)
    )
    w_bits = peers[0].model.n_params * config.bits_per_param

    history = MetricsHistory()
    for rnd in range(config.rounds):
        train_losses = [peer.local_update(epochs=config.epochs) for peer in peers]

        # Push-pull gossip: each peer averages with `fanout` partners.
        weights = [peer.get_weights().copy() for peer in peers]
        contacts = 0
        for pid in range(config.n_peers):
            partners = rng.choice(
                [q for q in range(config.n_peers) if q != pid],
                size=config.fanout,
                replace=False,
            )
            for q in partners:
                avg = 0.5 * (weights[pid] + weights[q])
                weights[pid] = avg
                weights[int(q)] = avg.copy()
                contacts += 1
        for peer, w in zip(peers, weights):
            peer.set_weights(w)

        eval_ids = rng.choice(config.n_peers, size=n_eval, replace=False)
        losses, accs = zip(
            *(peers[int(i)].evaluate(dataset.x_test, dataset.y_test) for i in eval_ids)
        )
        history.append(
            RoundMetrics(
                round=rnd,
                test_accuracy=float(np.mean(accs)),
                test_loss=float(np.mean(losses)),
                train_loss=float(np.mean(train_losses)),
                comm_bits=float(2 * contacts * w_bits),  # push + pull
            )
        )
    return history
