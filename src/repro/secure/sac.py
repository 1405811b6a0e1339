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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .additive import divide
from .batched import (
    batched_seeded_zero_sum_dense,
    draw_divide_noise,
    fused_subtotals,
)
from .errors import SacAbort
from .seedshare import SEED_SHARE_BITS

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


def exchange_subtotals(
    models: Sequence[np.ndarray],
    rng: np.random.Generator,
    divide_fn: Callable[..., np.ndarray] = divide,
    share_codec: str = "dense",
) -> np.ndarray:
    """Share exchange + per-index subtotals of one group: ``(n, *shape)``.

    ``out[j] = sum_i par_wt_{i j}``, owners added left to right.  The
    whole subgroup's splits consume the RNG as one batched pass (bitwise
    identical to the per-owner loop).  Alg. 1 shares are ``fraction * w``,
    so the dense default never builds them (:func:`fused_subtotals`); a
    custom ``divide_fn`` and the seed-derived masks have no such form and
    are materialised, then reduced.
    """
    n = len(models)
    stack = np.stack([np.asarray(m, dtype=np.float64) for m in models])
    if share_codec == "dense" and divide_fn is divide:
        rn, totals = draw_divide_noise(n, n, rng)
        return fused_subtotals(stack, rn, totals, n)[0]
    if share_codec == "dense":
        shares = np.stack(
            [np.asarray(divide_fn(w, n, rng), dtype=np.float64) for w in stack]
        )
    else:
        shares = batched_seeded_zero_sum_dense(
            stack, n, rng, residual_indices=range(n)
        )
    return shares.sum(axis=0)


def sac_average(
    models: Sequence[np.ndarray],
    rng: np.random.Generator,
    crashed: set[int] | None = None,
    bits_per_param: int = DEFAULT_BITS_PER_PARAM,
    divide_fn: Callable[..., np.ndarray] = divide,
    share_codec: str = "dense",
) -> SacResult:
    """Run one n-out-of-n SAC round over ``models`` (paper Alg. 2).

    Parameters
    ----------
    models:
        One weight tensor per peer; all the same shape.
    rng:
        Randomness for the share splits.
    crashed:
        Peers that drop out during the round.  Plain SAC cannot tolerate
        any: a non-empty set raises :class:`SacAbort` (the caller restarts
        with the survivors, as the paper prescribes).
    bits_per_param:
        Wire width of one weight scalar, for cost accounting.
    share_codec:
        Phase-1 wire representation.  ``"dense"`` (default) splits with
        ``divide_fn`` and ships full vectors; ``"seed"`` derives each
        peer's n-1 mask shares from PRG seeds and ships ~32-byte seeds
        (the residual stays with the sender); ``"seed-dense"`` uses the
        same masks but materialized on the wire.  ``"seed"`` and
        ``"seed-dense"`` produce bit-identical averages — only the
        accounted bits differ.

    Returns
    -------
    SacResult
        The exact average of ``models`` plus measured communication cost.
    """
    _check_codec(share_codec)
    n = len(models)
    if n < 1:
        raise ValueError("need at least one peer")
    check_same_shape(models)
    if crashed:
        bad = {c for c in crashed if not 0 <= c < n}
        if bad:
            raise ValueError(f"crashed peer ids out of range: {sorted(bad)}")
        raise SacAbort(set(crashed))

    first = np.asarray(models[0], dtype=np.float64)
    w_bits = float(first.size * bits_per_param)

    # Phase 1 — every peer i splits wt_i into N shares and sends share j
    # to peer j (keeping share i).  Phase 2 — peer j computes
    # ps_wt_j = sum_i par_wt_{i j} and broadcasts it.
    subtotals = exchange_subtotals(models, rng, divide_fn, share_codec)
    if share_codec == "seed":
        # The residual stays at the owner's index, so an n-out-of-n
        # exchange transmits seeds only.
        phase1_bits = n * (n - 1) * SEED_SHARE_BITS
    else:
        phase1_bits = n * (n - 1) * w_bits
    phase1_msgs = n * (n - 1)
    phase2_msgs = n * (n - 1)

    # Phase 3 — every peer averages the subtotals (Eq. 1–3).
    average = subtotals.sum(axis=0)
    average /= n

    messages = phase1_msgs + phase2_msgs
    return SacResult(
        average=average,
        n_peers=n,
        bits_sent=phase1_bits + phase2_msgs * w_bits,
        messages_sent=messages,
    )


def sac_average_with_restart(
    models: Sequence[np.ndarray],
    rng: np.random.Generator,
    crash_schedule: Sequence[set[int]],
    bits_per_param: int = DEFAULT_BITS_PER_PARAM,
) -> tuple[SacResult, int]:
    """Plain SAC with the paper's restart-on-dropout behaviour.

    ``crash_schedule[a]`` is the set of (original) peer indices that crash
    during attempt ``a``.  Each aborted attempt still pays a full round of
    communication before restarting with the survivors.  Returns the final
    result (average over the survivors only) and the number of attempts.
    """
    alive = list(range(len(models)))
    total_bits = 0.0
    total_msgs = 0
    for attempt, crashes in enumerate(list(crash_schedule) + [set()]):
        crashes = {c for c in crashes if c in alive}
        current = [models[i] for i in alive]
        try:
            result = sac_average(
                current,
                rng,
                crashed={alive.index(c) for c in crashes},
                bits_per_param=bits_per_param,
            )
        except SacAbort:
            # The aborted attempt consumed (up to) a full round of traffic.
            n = len(current)
            w_bits = np.asarray(models[0]).size * bits_per_param
            total_bits += 2 * n * (n - 1) * w_bits
            total_msgs += 2 * n * (n - 1)
            alive = [i for i in alive if i not in crashes]
            if not alive:
                raise
            continue
        return (
            SacResult(
                average=result.average,
                n_peers=result.n_peers,
                bits_sent=total_bits + result.bits_sent,
                messages_sent=total_msgs + result.messages_sent,
            ),
            attempt + 1,
        )
    raise AssertionError("unreachable")  # pragma: no cover
