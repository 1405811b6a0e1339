"""Minibatch iteration."""

from __future__ import annotations

from typing import Iterator

import numpy as np


def batches(
    x: np.ndarray,
    y: np.ndarray,
    batch_size: int,
    rng: np.random.Generator | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(x_batch, y_batch)`` minibatches.

    Shuffles when ``rng`` is given.  Batches are views into the shuffled
    copy (one permutation-gather per epoch, no per-batch copies).
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    n = x.shape[0]
    if y.shape[0] != n:
        raise ValueError("x / y length mismatch")
    if rng is not None:
        perm = rng.permutation(n)
        x = x[perm]
        y = y[perm]
    for start in range(0, n, batch_size):
        yield x[start:start + batch_size], y[start:start + batch_size]
