"""Shamir's t-out-of-n secret sharing over a prime field.

The paper achieves k-out-of-n tolerance with *replicated* additive
sharing (each peer stores ``n-k+1`` share indices), paying
``(n-k+1)x`` communication.  Shamir's scheme reaches the same threshold
with **one** field element per peer: the secret is the constant term of
a random degree-``t-1`` polynomial and any ``t`` evaluation points
reconstruct it by Lagrange interpolation.

Included for the cost/robustness comparison benchmark (an extension the
paper's Sec. II-B alludes to via Bonawitz et al.): Shamir halves the
share traffic but loses the additive-subtotal trick's one-round
simplicity (reconstruction needs interpolation instead of a plain sum —
though it is still linear, so sums of shares reconstruct sums of
secrets, which is what the aggregation uses).

Field: the Mersenne prime ``p = 2^61 - 1`` — products of two elements
fit in Python ints; NumPy ``object`` arrays are avoided by doing the
modular math on Python ints per evaluation point but vectorized over
the tensor via ``uint64`` chunks where safe.
"""

from __future__ import annotations

import numpy as np

#: Mersenne prime field modulus.
PRIME = (1 << 61) - 1


def _check_t_n(t: int, n: int) -> None:
    if not 1 <= t <= n:
        raise ValueError(f"need 1 <= t <= n, got t={t}, n={n}")
    if n >= PRIME:
        raise ValueError("n must be below the field modulus")


def share_secret(
    secret: np.ndarray, t: int, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Split field elements into ``n`` Shamir shares with threshold ``t``.

    ``secret`` is a ``uint64`` array of values in ``[0, PRIME)``.
    Returns shape ``(n, *secret.shape)``; share ``i`` is the polynomial
    evaluated at ``x = i + 1``.
    """
    _check_t_n(t, n)
    secret = np.asarray(secret, dtype=np.uint64)
    if np.any(secret >= PRIME):
        raise ValueError("secret values must lie in the field")
    # Random coefficients c_1..c_{t-1}, shape (t-1, *secret.shape).
    coeffs = rng.integers(0, PRIME, size=(t - 1,) + secret.shape, dtype=np.uint64)
    shares = np.empty((n,) + secret.shape, dtype=np.uint64)
    sec = secret.astype(object)
    cfs = coeffs.astype(object)
    for i in range(n):
        x = i + 1
        # Horner evaluation in the field (object ints avoid overflow).
        acc = np.zeros(secret.shape, dtype=object)
        for j in range(t - 2, -1, -1):
            acc = (acc * x + cfs[j]) % PRIME
        value = (acc * x + sec) % PRIME
        shares[i] = value.astype(np.uint64)
    return shares


def _lagrange_weights(xs: list[int]) -> list[int]:
    """Lagrange basis weights at x=0 for evaluation points ``xs``."""
    weights = []
    for i, xi in enumerate(xs):
        num, den = 1, 1
        for j, xj in enumerate(xs):
            if i == j:
                continue
            num = (num * (-xj)) % PRIME
            den = (den * (xi - xj)) % PRIME
        weights.append((num * pow(den, PRIME - 2, PRIME)) % PRIME)
    return weights


def reconstruct_secret(
    shares: dict[int, np.ndarray], t: int
) -> np.ndarray:
    """Reconstruct from ``{peer_index: share}`` (any ``t`` of them).

    Peer indices are the 0-based indices used at sharing time
    (evaluation point ``index + 1``).
    """
    if len(shares) < t:
        raise ValueError(f"need at least t={t} shares, got {len(shares)}")
    items = sorted(shares.items())[:t]
    xs = [i + 1 for i, _ in items]
    weights = _lagrange_weights(xs)
    first = np.asarray(items[0][1], dtype=np.uint64)
    acc = np.zeros(first.shape, dtype=object)
    for (idx, share), w in zip(items, weights):
        acc = (acc + np.asarray(share, dtype=np.uint64).astype(object) * w) % PRIME
    return acc.astype(np.uint64)


def shamir_sac_average(
    models: list[np.ndarray],
    t: int,
    rng: np.random.Generator,
    dropouts: set[int] | None = None,
) -> np.ndarray:
    """t-out-of-n SAC using Shamir sharing (fixed-point encoded, 20
    fraction bits).

    Each peer Shamir-shares its quantized model; peer ``j`` sums the
    j-th shares of all models (share arithmetic is linear, so this is a
    Shamir share of the *sum*); any ``t`` surviving peers' subtotals
    reconstruct the exact sum of all n models — including dropouts'
    (their shares were distributed before they crashed).
    """
    from .fixed_point import decode_fixed_point, encode_fixed_point

    frac_bits = 20
    n = len(models)
    _check_t_n(t, n)
    dropouts = set(dropouts or ())
    if len(dropouts) > n - t:
        raise ValueError(f"cannot tolerate {len(dropouts)} dropouts with t={t}")
    encoded = []
    for m in models:
        q = encode_fixed_point(m, frac_bits)
        # Map two's-complement uint64 into the field: keep the signed
        # value mod PRIME.
        signed = q.astype(np.int64).astype(object)
        encoded.append(np.mod(signed, PRIME).astype(np.uint64))
    all_shares = np.stack(
        [share_secret(q, t, n, rng) for q in encoded]
    )  # (owner, holder, *shape)
    # Each holder sums the shares it received (field addition).
    subtotals: dict[int, np.ndarray] = {}
    for holder in range(n):
        if holder in dropouts:
            continue
        acc = np.zeros(encoded[0].shape, dtype=object)
        for owner in range(n):
            acc = (acc + all_shares[owner, holder].astype(object)) % PRIME
        subtotals[holder] = acc.astype(np.uint64)
    total_field = reconstruct_secret(subtotals, t).astype(object)
    # Map back from the field to signed integers (values are centred
    # far from the modulus, so the halfway test is safe).
    signed_total = np.where(total_field > PRIME // 2, total_field - PRIME, total_field)
    total_q = signed_total.astype(np.int64).astype(np.uint64)
    return decode_fixed_point(total_q, frac_bits) / n


def shamir_cost_bits(
    n: int, t: int, w_params: int, bits_per_param: int = 64
) -> float:
    """Communication of one Shamir-SAC round: share exchange
    ``n(n-1)|w|`` (ONE share per peer, vs. ``(n-k+1)`` for replicated)
    plus ``(t-1)|w|`` subtotals to the leader."""
    _check_t_n(t, n)
    return float((n * (n - 1) + (t - 1)) * w_params * bits_per_param)
