"""Secure Average Computation (SAC) — paper Alg. 2, functional form.

All peers split their model into ``N`` additive shares, exchange shares,
compute subtotals, broadcast subtotals, and average.  The result is
mathematically identical to the plain mean of the inputs (paper Eq. 1–3)
while no peer ever observes another peer's model.

This functional implementation performs the exact arithmetic a real
deployment would and *counts* the messages/bits it would have sent, so
the measured cost can be checked against the closed form
``2 N (N-1) |w|`` (Sec. III-B).  The message-passing variant lives in
:mod:`repro.secure.protocol`.

Alg. 1–4 define one aggregate, and this module holds the one way to
compute it with no simulator: :func:`spawn_peer_seeds` fans a round seed
out to the peers and :func:`reference_group_average` is the group
arithmetic.  :func:`sac_average`,
:func:`~repro.secure.fault_tolerant.fault_tolerant_sac`, the two-layer
aggregator and the ``*_reference_average`` oracles are callers of that
pair, so at one seed they equal each other and every actor round bit for
bit, on every share codec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .batched import _accumulate_scaled, draw_divide_noise
from .errors import SacAbort
from .seedshare import seeded_zero_sum_shares

#: Weights travel as 32-bit floats (PyTorch default), matching the
#: paper's Gb figures.
DEFAULT_BITS_PER_PARAM = 32

#: Wire representations for phase-1 share distribution.  ``"dense"`` is
#: the paper-faithful materialized path (full vectors, Alg. 1 splits);
#: ``"seed"`` ships PRG seeds for the n-1 mask shares (O(d+n) per peer);
#: ``"seed-dense"`` uses the same seed-derived masks but materializes
#: them on the wire — the apples-to-apples control proving the codec
#: changes bytes, not arithmetic.
SHARE_CODECS = ("dense", "seed", "seed-dense")


def _check_codec(share_codec: str) -> None:
    if share_codec not in SHARE_CODECS:
        raise ValueError(
            f"unknown share codec {share_codec!r}; expected one of {SHARE_CODECS}"
        )


def check_same_shape(models: Sequence[np.ndarray]) -> None:
    """Reject ragged inputs before any share math touches them."""
    if isinstance(models, np.ndarray):
        return  # the rows of one array share a shape by construction
    shapes = {m.shape for m in map(np.asarray, models)}
    if len(shapes) != 1:
        raise ValueError(f"all models must share a shape, got {shapes}")


@dataclass(frozen=True)
class SacResult:
    """Outcome of one SAC round."""

    average: np.ndarray
    n_peers: int
    bits_sent: float
    messages_sent: int

    @property
    def gigabits(self) -> float:
        return self.bits_sent / 1e9


def spawn_peer_seeds(
    rng: np.random.Generator, count: int
) -> tuple[int, ...]:
    """Seeds of ``count`` per-peer generators, in peer-creation order.

    The one place a round seed fans out to its peers: the functional
    aggregators, the no-simulator references and the actor rounds all
    call it, so their share streams cannot drift apart.
    """
    return tuple(int(rng.integers(2**63)) for _ in range(count))


def reference_group_average(
    models: Sequence[np.ndarray],
    peer_seeds: Sequence[int],
    share_codec: str = "dense",
) -> np.ndarray:
    """What one fault-free SAC group agrees on, computed directly.

    The only share arithmetic outside the simulator: :func:`sac_average`,
    :func:`~.fault_tolerant.fault_tolerant_sac` and the ``*_reference_average``
    functions all end here.  Each peer's shares are drawn from its own
    generator exactly as :meth:`~.protocol.SacProtocolPeer.start_round`
    draws them — Alg. 1 fractions (dense), or
    :func:`~.seedshare.seeded_zero_sum_shares` with the residual at the
    owner's index (seed codecs) — each index's shares are added in owner
    order, and the leader's sum runs over the indices in order before the
    divide by ``n``: full-length passes over stored subtotals where the
    leader's :func:`~.batched.mean_of_subtotals` works block by block, so
    the two kernels check each other.  Same operands, same operations,
    same order per element — the result is bit-identical to
    ``leader.average`` of any round that *completes*, however many
    replicas Alg. 4 had to fetch on the way (``k`` decides who supplies a
    subtotal, never its value).  Returns a new float64 array that owns
    its memory.
    """
    _check_codec(share_codec)
    n = len(models)
    if n < 1:
        raise ValueError("need at least one peer")
    if len(peer_seeds) != n:
        raise ValueError(f"need one seed per peer: {len(peer_seeds)} for n={n}")
    check_same_shape(models)
    owners = [np.asarray(m, dtype=np.float64) for m in models]
    rngs = [np.random.default_rng(s) for s in peer_seeds]
    shape, d = owners[0].shape, owners[0].size
    if share_codec == "dense":
        fractions = []
        for rng in rngs:
            rn, totals = draw_divide_noise(1, n, rng)
            fractions.append(rn[0] / totals[0])
        # The models go in as flat views, not as a stacked copy.
        subtotals = np.empty((n, d))
        _accumulate_scaled(subtotals, [m.reshape(d) for m in owners], fractions)
        subtotals = subtotals.reshape((n,) + shape)
    else:
        for i, (model, rng) in enumerate(zip(owners, rngs)):
            shares = seeded_zero_sum_shares(
                model, n, rng, residual_index=i
            ).materialize()
            # Origins left to right, into owner 0's (n, *shape) array.
            subtotals = shares if i == 0 else np.add(
                subtotals, shares, out=subtotals
            )
    total = subtotals[0]
    for idx in range(1, n):
        np.add(total, subtotals[idx], out=total)
    # The divide writes a new array, so the result owns its memory and
    # the (n, |w|) scratch is freed on return.
    return total / n


def sac_average(
    models: Sequence[np.ndarray],
    rng: np.random.Generator,
    crashed: set[int] | None = None,
) -> SacResult:
    """Run one n-out-of-n SAC round over ``models`` (paper Alg. 2).

    Parameters
    ----------
    models:
        One weight tensor per peer; all the same shape.
    rng:
        Randomness for the share splits: exactly ``n`` draws, the peers'
        seeds (:func:`spawn_peer_seeds`), so with
        ``rng = default_rng(seed)`` the average is bit for bit that of
        ``run_sac_protocol(models, k, seed=seed)``.
    crashed:
        Peers that drop out during the round.  Plain SAC cannot tolerate
        any: a non-empty set raises :class:`SacAbort` (the caller restarts
        with the survivors, as the paper prescribes).

    Returns
    -------
    SacResult
        The exact average of ``models`` plus measured communication cost.
    """
    n = len(models)
    if crashed:
        bad = {c for c in crashed if not 0 <= c < n}
        if bad:
            raise ValueError(f"crashed peer ids out of range: {sorted(bad)}")
        raise SacAbort(set(crashed))

    # Phase 1 — every peer i splits wt_i into N shares and sends share j
    # to peer j (keeping share i).  Phase 2 — peer j computes
    # ps_wt_j = sum_i par_wt_{i j} and broadcasts it.  Phase 3 — every
    # peer averages the subtotals (Eq. 1–3).
    average = reference_group_average(models, spawn_peer_seeds(rng, n))
    w_bits = float(average.size * DEFAULT_BITS_PER_PARAM)
    phase1_bits = n * (n - 1) * w_bits
    phase1_msgs = n * (n - 1)
    phase2_msgs = n * (n - 1)

    messages = phase1_msgs + phase2_msgs
    return SacResult(
        average=average,
        n_peers=n,
        bits_sent=phase1_bits + phase2_msgs * w_bits,
        messages_sent=messages,
    )
