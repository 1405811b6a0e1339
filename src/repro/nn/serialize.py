"""Flat-parameter serialization.

The aggregation protocols (SAC, FedAvg) operate on a single contiguous
1-D float64 vector per model — the cache-friendly representation the HPC
guides recommend over per-layer Python loops.  ``get_flat_params`` /
``set_flat_params`` convert between a model's parameter list and that
vector.
"""

from __future__ import annotations

import numpy as np

from .model import Sequential


def get_flat_params(model: Sequential, out: np.ndarray | None = None) -> np.ndarray:
    """Copy all parameters into one flat float64 vector.

    Passing ``out`` (of length ``model.n_params``) avoids an allocation —
    the FL session reuses one buffer per peer across rounds.
    """
    n = model.n_params
    if out is None:
        out = np.empty(n)
    elif out.shape != (n,):
        raise ValueError(f"out must have shape ({n},), got {out.shape}")
    offset = 0
    for p in model.params():
        size = p.size
        out[offset : offset + size] = p.value.ravel()
        offset += size
    return out


def set_flat_params(model: Sequential, flat: np.ndarray) -> None:
    """Write a flat vector back into the model's parameter tensors."""
    flat = np.asarray(flat)
    n = model.n_params
    if flat.shape != (n,):
        raise ValueError(f"expected flat vector of shape ({n},), got {flat.shape}")
    offset = 0
    for p in model.params():
        size = p.size
        p.value[...] = flat[offset : offset + size].reshape(p.value.shape)
        offset += size
