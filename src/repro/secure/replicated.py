"""k-out-of-n replicated additive secret sharing — share-placement combinatorics.

In the paper's fault-tolerant SAC (Alg. 4, lines 3–9) each peer ``j``
receives the ``n - k + 1`` *consecutive* share indices
``j, j+1, …, j+(n-k) (mod n)`` of every other peer's model.  Consequently
share index ``s`` is replicated on the ``n - k + 1`` peers
``s-(n-k), …, s (mod n)``, so any ``k`` surviving peers still hold all
``n`` share indices between them — the aggregation survives up to
``n - k`` crashes.

This module isolates that placement logic so both the functional and the
message-passing SAC implementations (and the property-based tests) share
one source of truth.
"""

from __future__ import annotations


def _check(n: int, k: int) -> None:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")


def shares_held_by(peer: int, n: int, k: int) -> list[int]:
    """Share indices stored by ``peer`` (its own plus received bundles)."""
    _check(n, k)
    if not 0 <= peer < n:
        raise ValueError(f"peer index {peer} out of range for n={n}")
    return [(peer + t) % n for t in range(n - k + 1)]


def holders_of_share(share: int, n: int, k: int) -> list[int]:
    """Peers that hold share index ``share`` (the replica group)."""
    _check(n, k)
    if not 0 <= share < n:
        raise ValueError(f"share index {share} out of range for n={n}")
    return [(share - t) % n for t in range(n - k + 1)]


def missing_shares(crashed: set[int], n: int, k: int) -> set[int]:
    """Share indices with no surviving holder."""
    _check(n, k)
    alive = set(range(n)) - set(crashed)
    held: set[int] = set()
    for peer in alive:
        held.update(shares_held_by(peer, n, k))
    return set(range(n)) - held


def seeded_exchange_entry_counts(n: int, k: int) -> tuple[int, int]:
    """Per-owner bundle entry counts under the ``"seed"`` share codec.

    With seed-compressed shares an owner keeps the full residual vector
    at its *own* share index and derives every other index from a PRG
    seed.  One seed serves a whole replica group (all ``n-k+1`` holders
    of a share index expand the same seed to the same mask), so across
    the ``n-1`` outgoing bundles of ``n-k+1`` entries each:

    - ``dense``: copies of the residual sent to the *other* holders of
      the owner's index — ``n - k`` full vectors;
    - ``seeds``: everything else — ``(n-1)(n-k+1) - (n-k)`` seed
      payloads.

    Returns ``(dense, seeds)``.  At ``k = n`` the exchange is pure
    seeds: ``(0, n-1)`` — the O(d + n) fast path.
    """
    _check(n, k)
    dense = n - k
    seeds = (n - 1) * (n - k + 1) - dense
    return dense, seeds
