"""Federated Averaging (Sec. III-A).

``w_{t+1} = sum_k (n_k / n) w_{t+1}^k`` — the sample-count-weighted mean
of the client models.  In the two-layer system (Alg. 3 line 10) the
"clients" are subgroup leaders and ``n_k`` is the subgroup size.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..secure.batched import _FUSED_BLOCK, _split_blocks


def fedavg(
    models: Sequence[np.ndarray],
    weights: Sequence[float] | None = None,
) -> np.ndarray:
    """Weighted average of flat model vectors.

    Parameters
    ----------
    models:
        Flat parameter vectors, all the same shape.
    weights:
        Non-negative aggregation weights (sample counts ``n_k`` or
        subgroup sizes).  Defaults to uniform.

    Accumulates in cache-sized blocks along the first axis, each span of
    blocks (:func:`~repro.secure.batched._split_blocks`) through its own
    scratch buffer: every element sees the products and adds of
    ``out += model * (w_k / total)`` taken over the models in order — the
    same bits — without a ``(len(models), |w|)`` temporary or a
    ``|w|``-sized product per model.
    """
    if len(models) == 0:
        raise ValueError("need at least one model")
    first = np.asarray(models[0], dtype=np.float64)
    if weights is None:
        weights = [1.0] * len(models)
    if len(weights) != len(models):
        raise ValueError(
            f"got {len(models)} models but {len(weights)} weights"
        )
    w = np.asarray(weights, dtype=np.float64)
    if (w < 0).any():
        raise ValueError("weights must be non-negative")
    total = w.sum()
    if total <= 0:
        raise ValueError("weights must not all be zero")

    models = [np.asarray(model) for model in models]
    for model in models:
        if model.shape != first.shape:
            raise ValueError(
                f"model shape mismatch: {model.shape} vs {first.shape}"
            )
    out = np.empty_like(first)
    # Blocks run along the first axis (a 0-d "model" is lent one).
    outs = out if out.ndim else out[None]
    srcs = [model if model.ndim else model[None] for model in models]
    rows = max(1, _FUSED_BLOCK * len(outs) // max(1, outs.size))
    scales = w / total

    def run(lo: int, hi: int) -> None:
        tmp = np.empty(outs[:rows].shape, dtype=np.float64)
        for r in range(lo * rows, min(hi * rows, len(outs)), rows):
            acc = outs[r:r + rows]
            scratch = tmp[:len(acc)]
            acc[...] = 0.0
            for src, scale in zip(srcs, scales):
                np.multiply(src[r:r + rows], scale, out=scratch)
                np.add(acc, scratch, out=acc)

    _split_blocks(-(-len(outs) // rows), run)
    return out
