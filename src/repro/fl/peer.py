"""An FL peer: a model, an optimizer, and a private data shard.

Each round the peer (1) overwrites its model with the received global
weights, (2) trains locally for one epoch with Adam (paper: batch size
50, lr 1e-4), and (3) exposes its updated flat weight
vector to the aggregation protocol.
"""

from __future__ import annotations

import numpy as np

from ..data.loader import batches
from ..nn.model import Sequential
from ..nn.optim import Adam
from ..nn.serialize import get_flat_params, set_flat_params


class FLPeer:
    """One participant in the P2P federated-learning network."""

    def __init__(
        self,
        peer_id: int,
        model: Sequential,
        x: np.ndarray,
        y: np.ndarray,
        rng: np.random.Generator,
        lr: float = 1e-4,
        batch_size: int = 50,
    ) -> None:
        if x.shape[0] != y.shape[0]:
            raise ValueError("x / y length mismatch")
        if x.shape[0] == 0:
            raise ValueError(f"peer {peer_id} has an empty shard")
        self.peer_id = peer_id
        self.model = model
        self.x = x
        self.y = y
        self.rng = rng
        self.batch_size = batch_size
        self.optimizer = Adam(model.params(), lr=lr)
        self._flat_buf = np.empty(model.n_params)

    @property
    def n_samples(self) -> int:
        """``n_k`` — this peer's FedAvg weight."""
        return self.x.shape[0]

    def local_update(self) -> float:
        """Train one epoch on the local shard; returns the mean minibatch loss."""
        total = 0.0
        count = 0
        for xb, yb in batches(self.x, self.y, self.batch_size, rng=self.rng):
            total += self.model.train_batch(xb, yb)
            self.optimizer.step()
            count += 1
        return total / count

    def get_weights(self) -> np.ndarray:
        """Flat weight vector (reuses one internal buffer across rounds)."""
        return get_flat_params(self.model, out=self._flat_buf)

    def set_weights(self, flat: np.ndarray) -> None:
        set_flat_params(self.model, flat)

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
        """(loss, accuracy) of the current local model on ``(x, y)``."""
        return self.model.evaluate(x, y)
