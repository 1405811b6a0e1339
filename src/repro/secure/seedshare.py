"""Seed-compressed secret shares: O(d + n) share distribution.

The paper's SAC (Alg. 1/2) and k-out-of-n FT-SAC (Alg. 4) ship full
``d``-dimensional share vectors to every recipient — ``O(n·d)`` bits per
peer per round.  Practical secure aggregation (Bonawitz et al., CCS'17)
replaces transmitted *mask* shares with short PRG seeds the recipient
expands locally: the sender derives ``n-1`` mask shares from
per-recipient seeds, keeps only the full residual vector
``w - sum(masks)``, and transmits 32-byte seeds instead of vectors.
Share distribution collapses to ``O(d + n)`` while the reconstructed sum
stays bit-identical (the expansion is deterministic, so a materialized
mask and a locally expanded one are the *same* float64/uint64 array).

Two mask codecs mirror the repo's two sharing domains:

- :data:`FLOAT_CODEC` — N(0, 1) float64 masks, the zero-sum
  splitting of :func:`repro.secure.additive.divide_zero_sum`;
- :data:`RING_CODEC` — uniform ``uint64`` masks over ``Z_{2^64}``, the
  fixed-point ring splitting of
  :func:`repro.secure.fixed_point.divide_ring` (sums exact mod ``2^64``).

Expansion uses ``numpy``'s counter-based Philox generator keyed by the
128-bit share seed, so any holder of the seed reproduces the mask
bit-for-bit regardless of platform or call order.

Security note: unlike the materialized uniform shares, seed-derived
shares hide the secret only *computationally* (an adversary breaking the
PRG learns the mask).  ``docs/secure.md`` discusses the trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Wire width of the PRG key (Philox4x32 keys are 128 bits).
SEED_KEY_BITS = 128
#: Codec tag + shape/dtype descriptor accompanying each seed on the wire.
SEED_HEADER_BITS = 64
#: Honest per-seed payload size used by ``size_bits()`` and the closed forms.
SEED_SHARE_BITS = SEED_KEY_BITS + SEED_HEADER_BITS

#: float64 zero-sum masks (additive sharing over the reals).
FLOAT_CODEC = "float64-zero-sum"
#: uniform uint64 masks (additive sharing over Z_{2^64}).
RING_CODEC = "ring64"

_CODECS = (FLOAT_CODEC, RING_CODEC)

_RING_HIGH = 2**64  # exclusive upper bound for full-range uint64 draws


def draw_seed(rng: np.random.Generator) -> int:
    """Draw a 128-bit share seed from the caller's randomness source."""
    hi = int(rng.integers(0, _RING_HIGH, dtype=np.uint64))
    lo = int(rng.integers(0, _RING_HIGH, dtype=np.uint64))
    return (hi << 64) | lo


def _expander(seed: int) -> np.random.Generator:
    """The deterministic mask generator for one share seed."""
    return np.random.Generator(np.random.Philox(key=seed))


@dataclass(frozen=True)
class SeedShare:
    """A secret share represented by its PRG seed plus expansion metadata.

    Holders call :meth:`expand` to materialize the mask locally; the
    result is bit-identical wherever it is expanded.  ``size_bits``
    reports the honest wire size (key + header), independent of the
    expanded dimension — that asymmetry is the whole point.
    """

    seed: int
    shape: tuple[int, ...]
    codec: str = FLOAT_CODEC

    def __post_init__(self) -> None:
        if self.codec not in _CODECS:
            raise ValueError(f"unknown seed-share codec {self.codec!r}")
        if not 0 <= self.seed < 2**SEED_KEY_BITS:
            raise ValueError("seed must fit the 128-bit Philox key")

    def expand(self) -> np.ndarray:
        """Materialize the mask share (deterministic in ``seed``)."""
        rng = _expander(self.seed)
        if self.codec == FLOAT_CODEC:
            return rng.normal(0.0, 1.0, size=self.shape)
        return rng.integers(0, _RING_HIGH, size=self.shape, dtype=np.uint64)

    def size_bits(self) -> float:
        return float(SEED_SHARE_BITS)


@dataclass(frozen=True)
class SeededShares:
    """One peer's additive split: ``n-1`` seed-derived masks + the residual.

    ``seeds[j]`` is the :class:`SeedShare` for share index ``j`` (absent
    for ``residual_index``); ``residual`` is the only full-width vector,
    ``w - sum(masks)`` (float codec) or ``q - sum(masks) mod 2^64``
    (ring codec).  The sender keeps the residual at its own index, so a
    plain n-out-of-n exchange ships seeds only.
    """

    n: int
    residual_index: int
    residual: np.ndarray
    seeds: dict[int, SeedShare] = field(default_factory=dict)
    #: Optional pre-expanded ``(n, *shape)`` dense view.  The splitting
    #: routines already expand every mask once to compute the residual;
    #: caching that pass here makes ``expand``/``materialize`` free
    #: instead of re-running the PRG (the values are identical either
    #: way — expansion is deterministic in the seed).
    dense: np.ndarray | None = None

    def share(self, index: int):
        """Wire payload for share ``index``: a seed, or the residual."""
        if index == self.residual_index:
            return self.residual
        return self.seeds[index]

    def expand(self, index: int) -> np.ndarray:
        """The materialized value of share ``index``."""
        if index == self.residual_index:
            return self.residual
        if self.dense is not None:
            return self.dense[index]
        return self.seeds[index].expand()

    def materialize(self) -> np.ndarray:
        """Dense ``(n, *shape)`` share array — the ``"dense"`` wire form.

        Summing over axis 0 reconstructs the secret exactly as the
        seed-expanded path does: both paths operate on the same arrays.
        """
        if self.dense is not None:
            return self.dense
        out = np.empty((self.n,) + self.residual.shape, self.residual.dtype)
        for j in range(self.n):
            out[j] = self.expand(j)
        return out


def _check_split(n: int, residual_index: int | None) -> int:
    if n < 1:
        raise ValueError(f"need at least one share, got n={n}")
    residual_index = n - 1 if residual_index is None else residual_index
    if not 0 <= residual_index < n:
        raise ValueError(f"residual index {residual_index} out of range")
    return residual_index


def seeded_zero_sum_shares(
    w: np.ndarray,
    n: int,
    rng: np.random.Generator,
    residual_index: int | None = None,
) -> SeededShares:
    """Seeded analogue of :func:`repro.secure.additive.divide_zero_sum`.

    The ``n-1`` mask shares are N(0, 1) vectors expanded from
    per-share 128-bit seeds drawn off ``rng``; the residual lands at
    ``residual_index`` (default: last, mirroring ``divide_zero_sum``).
    """
    residual_index = _check_split(n, residual_index)
    w = np.asarray(w, dtype=np.float64)
    seeds: dict[int, SeedShare] = {}
    dense = np.empty((n,) + w.shape, dtype=np.float64)
    acc: np.ndarray | None = None
    for j in range(n):
        if j == residual_index:
            continue
        seeds[j] = SeedShare(draw_seed(rng), w.shape, FLOAT_CODEC)
        mask = seeds[j].expand()
        dense[j] = mask
        acc = mask if acc is None else acc + mask
    residual = w.copy() if acc is None else w - acc
    dense[residual_index] = residual
    return SeededShares(n, residual_index, residual, seeds, dense=dense)


def seeded_ring_shares(
    q: np.ndarray,
    n: int,
    rng: np.random.Generator,
    residual_index: int | None = None,
) -> SeededShares:
    """Seeded analogue of :func:`repro.secure.fixed_point.divide_ring`.

    Mask shares are uniform over ``Z_{2^64}``; the residual is computed
    mod ``2^64``, so the share sum reconstructs ``q`` exactly.  All
    ``n - 1`` seeds are drawn in one RNG pass (bit-identical stream to
    sequential :func:`draw_seed` calls — one ``next64`` per word) and
    expanded in one vectorized Philox pass
    (:func:`repro.secure.philox.expand_ring_batch`).
    """
    residual_index = _check_split(n, residual_index)
    q = np.asarray(q, dtype=np.uint64)
    words = rng.integers(0, _RING_HIGH, size=(n - 1, 2), dtype=np.uint64)
    d = int(np.prod(q.shape)) if q.shape else 1
    from .philox import expand_ring_batch

    masks = expand_ring_batch(words[:, 0], words[:, 1], d)
    masks = masks.reshape((n - 1,) + q.shape)
    dense = np.empty((n,) + q.shape, dtype=np.uint64)
    seeds: dict[int, SeedShare] = {}
    slot = 0
    for j in range(n):
        if j == residual_index:
            continue
        seed = (int(words[slot, 0]) << 64) | int(words[slot, 1])
        seeds[j] = SeedShare(seed, q.shape, RING_CODEC)
        dense[j] = masks[slot]
        slot += 1
    # uint64 sums wrap mod 2^64 in any order: identical to sequential
    # per-mask subtraction.
    residual = q - masks.sum(axis=0, dtype=np.uint64)
    dense[residual_index] = residual
    return SeededShares(n, residual_index, residual, seeds, dense=dense)
