"""Weight initializers.

All initializers take an explicit :class:`numpy.random.Generator` so model
construction is reproducible, and return float64 arrays (the aggregation
arithmetic is done in float64; the *wire* format is accounted at 32 bits).
"""

from __future__ import annotations

import numpy as np


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    """(fan_in, fan_out) for dense ``(in, out)`` or conv ``(F, C, kh, kw)``."""
    if len(shape) == 2:
        return shape[0], shape[1]
    if len(shape) == 4:
        f, c, kh, kw = shape
        receptive = kh * kw
        return c * receptive, f * receptive
    raise ValueError(f"unsupported weight shape {shape}")


def glorot_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform: U(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    fan_in, fan_out = _fans(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """All-zero initializer (biases)."""
    return np.zeros(shape)
