"""Additive secret sharing — paper Alg. 1.

``divide`` splits a secret tensor ``w`` into ``n`` shares summing to
``w``.  The paper normalizes ``n`` uniform random numbers by their sum and
scales ``w`` by each fraction.  We follow that construction but resample
whenever the random sum is too close to zero (the paper leaves this
unspecified; with U(0,1) draws the probability of a tiny sum is already
negligible, but the guard makes the routine safe for any RNG).

``divide_zero_sum`` is the textbook alternative used for an ablation:
``n-1`` shares are sampled at a configurable mask scale and the last share
is the residual.  Unlike Alg. 1 its shares are statistically independent
of ``w`` (information-theoretic hiding over the reals up to the mask
range), which is the behaviour secure-aggregation masking schemes rely on.
"""

from __future__ import annotations

import numpy as np

from .batched import batched_divide, batched_zero_sum


def divide(
    w: np.ndarray, n: int, rng: np.random.Generator, max_resample: int = 100
) -> np.ndarray:
    """Split ``w`` into ``n`` additive shares (paper Alg. 1).

    Thin single-owner view over :func:`repro.secure.batched.batched_divide`
    (same RNG stream, bitwise-identical shares).

    Parameters
    ----------
    w:
        Secret tensor of any shape.
    n:
        Number of shares (``n >= 1``).
    rng:
        Randomness source for the split fractions.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(n, *w.shape)`` whose sum over axis 0 equals
        ``w`` exactly up to floating-point rounding.
    """
    w = np.asarray(w)
    return batched_divide(w[np.newaxis], n, rng, max_resample=max_resample)[0]


def divide_zero_sum(
    w: np.ndarray, n: int, rng: np.random.Generator, mask_scale: float = 1.0
) -> np.ndarray:
    """Split ``w`` into ``n`` shares where ``n-1`` are pure random masks.

    The first ``n-1`` shares are N(0, mask_scale) noise; the last is the
    residual ``w - sum(masks)``.  Sum over axis 0 equals ``w``.  Thin
    single-owner view over :func:`repro.secure.batched.batched_zero_sum`.
    """
    w = np.asarray(w, dtype=np.float64)
    return batched_zero_sum(w[np.newaxis], n, rng, mask_scale=mask_scale)[0]


def reconstruct(shares: np.ndarray) -> np.ndarray:
    """Recombine additive shares: the sum over the first axis."""
    shares = np.asarray(shares)
    if shares.ndim < 1 or shares.shape[0] < 1:
        raise ValueError("need at least one share")
    return shares.sum(axis=0)
