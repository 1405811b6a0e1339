"""Fixed-point additive secret sharing over a modular ring.

The paper's Alg. 1 splits a float tensor into random *fractions* of
itself, so every share has the same sign pattern and magnitude scale as
the secret — a real deployment of additive secret sharing works over a
finite ring instead, where shares are uniformly random and therefore
information-theoretically independent of the secret (Ito et al. [7],
Evans et al. [13]).

This module provides that construction as a drop-in alternative:

1. weights are quantized to fixed-point integers
   (``q = round(w * 2^frac_bits)``),
2. each value is split into ``n`` shares uniform over ``Z_{2^64}``
   summing to ``q`` (mod ``2^64``),
3. subtotals and the final sum are computed in the ring; the sum is
   decoded back to float and divided by the peer count.

Exactness: the *sum* of quantized values is recovered exactly, so the
only error vs. Alg. 1 is the quantization step — bounded by
``n / 2^(frac_bits+1)`` per coordinate of the average.

The ring width is fixed at 64 bits (NumPy ``uint64`` arithmetic wraps
mod ``2^64`` natively, giving vectorized constant-time share math).
``frac_bits`` plus the magnitude of the summed weights must fit well
inside the signed decoding range ``[-2^63, 2^63)``.
"""

from __future__ import annotations

import numpy as np

from .batched import (
    batched_divide_ring,
    batched_seeded_ring_dense,
)
from .sac import check_same_shape

_RING_BITS = 64
_SIGN_BIT = np.uint64(1) << np.uint64(63)


def encode_fixed_point(w: np.ndarray, frac_bits: int = 24) -> np.ndarray:
    """Quantize floats to the ring: ``uint64(round(w * 2^frac_bits))``.

    Values are two's-complement encoded, so negatives map to the upper
    half of the ring.
    """
    if not 0 < frac_bits < 62:
        raise ValueError("frac_bits must be in (0, 62)")
    w = np.asarray(w, dtype=np.float64)
    scaled = np.rint(w * float(1 << frac_bits))
    limit = float(2**62)  # headroom for summation before decode
    if np.any(np.abs(scaled) >= limit):
        raise OverflowError(
            "weights too large for the fixed-point range; lower frac_bits"
        )
    # Single int64 cast, then a zero-copy two's-complement reinterpret
    # (the old .astype(np.int64).astype(np.uint64) materialized twice).
    return scaled.astype(np.int64).view(np.uint64)


def decode_fixed_point(q: np.ndarray, frac_bits: int = 24) -> np.ndarray:
    """Invert :func:`encode_fixed_point` (two's-complement aware)."""
    if not 0 < frac_bits < 62:
        raise ValueError("frac_bits must be in (0, 62)")
    q = np.asarray(q, dtype=np.uint64)
    signed = q.view(np.int64)  # zero-copy: upper half reads as negative
    return signed.astype(np.float64) / float(1 << frac_bits)


def divide_ring(
    q: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Split ring elements into ``n`` uniformly random additive shares.

    Returns shape ``(n, *q.shape)`` of ``uint64`` with
    ``shares.sum(axis=0) mod 2^64 == q``.  The first ``n-1`` shares are
    i.i.d. uniform over the full ring — independent of the secret.  Thin
    single-owner view over
    :func:`repro.secure.batched.batched_divide_ring` (same RNG stream).
    """
    q = np.asarray(q, dtype=np.uint64)
    return batched_divide_ring(q[np.newaxis], n, rng)[0]


def sac_average_fixed_point(
    models: list[np.ndarray] | tuple[np.ndarray, ...],
    rng: np.random.Generator,
    frac_bits: int = 24,
    share_codec: str = "dense",
) -> np.ndarray:
    """One SAC round over the ring: quantize, share, sum, decode, average.

    The result differs from ``np.mean(models, axis=0)`` only by the
    per-peer quantization error (< ``n / 2^(frac_bits+1)`` per element).
    ``share_codec="seed"`` derives each peer's mask shares from PRG seeds
    (:func:`~repro.secure.batched.batched_seeded_ring_dense`); because the
    ring sum cancels the masks *exactly*, the decoded average is
    bit-identical across codecs.
    """
    if share_codec not in ("dense", "seed"):
        raise ValueError(f"unknown share codec {share_codec!r}")
    n = len(models)
    if n < 1:
        raise ValueError("need at least one peer")
    check_same_shape(models)
    qstack = encode_fixed_point(
        np.stack([np.asarray(m, dtype=np.float64) for m in models]), frac_bits
    )
    # Phase 1: each peer shares its quantized model — one batched kernel
    # for the whole subgroup (uint64 sums are exact mod 2^64, so the
    # vectorized reductions below equal the sequential loops bit for bit).
    if share_codec == "seed":
        shares = batched_seeded_ring_dense(
            qstack, n, rng, residual_indices=range(n)
        )
    else:
        shares = batched_divide_ring(qstack, n, rng)
    # Phase 2: subtotal per share index, in the ring.
    subtotals = shares.sum(axis=0, dtype=np.uint64)
    # Phase 3: ring sum of subtotals == sum of quantized models.
    total = subtotals.sum(axis=0, dtype=np.uint64)
    return decode_fixed_point(total, frac_bits) / n
