"""Centralized (client-server) federated learning — the Sec. I strawman.

"In general, a central server updates the global model... However, the
server becomes a single point of failure, which makes it difficult to
continue the federated learning process when the server fails."

This module implements the classic server-based FedAvg loop with an
injectable server crash, so the motivation can be *measured*: when the
server dies, rounds stop producing aggregates (clients keep their last
model); the P2P two-layer system keeps training through the equivalent
fault (see ``benchmarks/test_baseline_central.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..data.partition import peer_datasets
from ..data.synthetic import Dataset
from ..nn.model import Sequential
from ..nn.serialize import get_flat_params, set_flat_params
from ..secure.sac import DEFAULT_BITS_PER_PARAM
from .fedavg import fedavg
from .metrics import MetricsHistory, RoundMetrics
from .peer import FLPeer


@dataclass(frozen=True)
class CentralConfig:
    """Classic FedAvg-with-a-server configuration."""

    n_clients: int = 10
    rounds: int = 50
    lr: float = 1e-4
    seed: int = 0
    #: round at which the aggregation server crashes (None = never)
    server_crash_round: int | None = None

    def __post_init__(self) -> None:
        if self.n_clients < 1 or self.rounds < 1:
            raise ValueError("n_clients and rounds must be >= 1")


class CentralServer:
    """The aggregation server: holds the global model, may crash."""

    def __init__(self, initial_weights: np.ndarray) -> None:
        self.global_weights = initial_weights.copy()
        self.crashed = False

    def aggregate(
        self, models: list[np.ndarray], weights: list[float]
    ) -> np.ndarray | None:
        """FedAvg, or ``None`` when the server is down."""
        if self.crashed:
            return None
        self.global_weights = fedavg(models, weights=weights)
        return self.global_weights

    def crash(self) -> None:
        self.crashed = True


def run_central_session(
    model_factory: Callable[[np.random.Generator], Sequential],
    dataset: Dataset,
    config: CentralConfig,
) -> MetricsHistory:
    """Run client-server FedAvg; a crashed server freezes the global model.

    ``comm_bits`` is 0 for rounds where the server was down (clients get
    no new global model and stop uploading after the failed attempt).
    """
    rng = np.random.default_rng(config.seed)
    shards = peer_datasets(dataset, config.n_clients, "iid", rng)
    clients = [
        FLPeer(
            pid,
            model_factory(rng),
            x,
            y,
            np.random.default_rng(rng.integers(2**63)),
            lr=config.lr,
        )
        for pid, (x, y) in enumerate(shards)
    ]
    eval_model = model_factory(rng)
    server = CentralServer(get_flat_params(clients[0].model))

    w_bits = clients[0].model.n_params * DEFAULT_BITS_PER_PARAM
    history = MetricsHistory()
    for rnd in range(config.rounds):
        if config.server_crash_round is not None and rnd == config.server_crash_round:
            server.crash()

        train_losses = []
        for client in clients:
            client.set_weights(server.global_weights)
            train_losses.append(client.local_update())

        models = [client.get_weights() for client in clients]
        result = server.aggregate(
            models, weights=[c.n_samples for c in clients]
        )
        if result is not None:
            comm_bits = 2.0 * (config.n_clients) * w_bits  # uploads + broadcast
        else:
            comm_bits = 0.0  # the learning process is interrupted (Sec. I)

        set_flat_params(eval_model, server.global_weights)
        test_loss, test_acc = eval_model.evaluate(dataset.x_test, dataset.y_test)
        history.append(
            RoundMetrics(
                round=rnd,
                test_accuracy=test_acc,
                test_loss=test_loss,
                train_loss=float(np.mean(train_losses)),
                comm_bits=comm_bits,
            )
        )
    return history
