"""Semi-honest privacy analysis of the sharing schemes.

The paper's security argument is qualitative ("without each peer having
to share its model to others"); its Alg. 1 splits a secret into random
*fractions* of itself, so a received share is perfectly correlated with
the secret up to scale.  This module measures that leakage empirically
and contrasts it with the ring-sharing construction:

- :func:`share_secret_correlation` — Pearson correlation between one
  received share and the secret, over many sharings;
- :func:`sign_leakage` — probability that a share reveals the secret's
  sign (Alg. 1 shares always carry the secret's sign, since the split
  fractions are positive w.h.p.);
- :func:`estimate_leaked_bits` — a crude mutual-information upper bound
  from the correlation (Gaussian channel formula), in bits per
  coordinate.

These power the privacy benchmark and the DESIGN.md discussion of why a
production deployment should use :mod:`repro.secure.fixed_point`.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ..secure.additive import divide
from ..secure.fixed_point import divide_ring, encode_fixed_point


def share_secret_correlation(
    divide_fn: Callable[[np.ndarray, int, np.random.Generator], np.ndarray],
    n: int,
    rng: np.random.Generator,
    trials: int = 2000,
) -> float:
    """Pearson correlation between secret scalars and one received share.

    Draws ``trials`` scalar secrets ~ N(0, 1), shares each into ``n``
    pieces, and correlates the first piece with the secret.
    ~1.0 means the share is essentially the secret (total leakage);
    ~0.0 means the share carries no linear information.
    """
    if n < 2:
        raise ValueError("need n >= 2 for an adversary to receive a share")
    secrets = rng.normal(size=trials)
    observed = np.empty(trials)
    for i, secret in enumerate(secrets):
        shares = divide_fn(np.array([secret]), n, rng)
        observed[i] = float(np.asarray(shares[0], dtype=np.float64)[0])
    return float(np.corrcoef(secrets, observed)[0, 1])


def ring_share_correlation(
    n: int, rng: np.random.Generator, trials: int = 2000
) -> float:
    """Same measurement for fixed-point ring sharing (should be ~0)."""

    def ring_divide(w, n_, rng_):
        return divide_ring(encode_fixed_point(w), n_, rng_)

    return share_secret_correlation(ring_divide, n, rng, trials=trials)


def sign_leakage(
    n: int, rng: np.random.Generator, trials: int = 2000
) -> float:
    """P(sign(received Alg. 1 share) == sign(secret)).

    Alg. 1's split fractions are each positive with overwhelming
    probability (n positive draws normalized by their sum), so every
    share inherits the secret's sign — a 1-bit leak per coordinate.  A
    hiding scheme scores ~0.5 (coin flip).
    """
    secrets = rng.normal(size=trials)
    hits = 0
    for secret in secrets:
        shares = divide(np.array([secret]), n, rng)
        if np.sign(shares[0][0]) == np.sign(secret):
            hits += 1
    return hits / trials


def estimate_leaked_bits(correlation: float) -> float:
    """Gaussian-channel mutual-information bound from a correlation:
    ``I = -0.5 * log2(1 - rho^2)`` bits per coordinate."""
    rho2 = min(correlation * correlation, 1.0 - 1e-12)
    return -0.5 * math.log2(1.0 - rho2)
