"""Fault-tolerant SAC — paper Alg. 4, functional form.

k-out-of-n replicated additive secret sharing: each peer distributes
``n-k+1`` consecutive share indices to every other peer, so the round
survives the crash of up to ``n-k`` peers *after* the share-exchange
phase (the Fig. 3 scenario).  The leader collects subtotals — falling
back to replica holders for subtotals whose primary peer crashed — and
reconstructs the exact average of *all* ``n`` models, including those of
the crashed peers.

Communication accounting matches Sec. VII-B:

- share exchange: ``n (n-1) (n-k+1) |w|``
- subtotal collection at the leader: ``(k-1) |w|``
- each recovery fetch: one extra ``|w|`` message per crashed subtotal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..obs import runtime as _obs
from .errors import SacReconstructionError
from .replicated import (
    holders_of_share,
    missing_shares,
    seeded_exchange_entry_counts,
    shares_held_by,
)
from .sac import (
    DEFAULT_BITS_PER_PARAM,
    reference_group_average,
    spawn_peer_seeds,
)
from .seedshare import SEED_SHARE_BITS


@dataclass(frozen=True)
class FtSacResult:
    """Outcome of one fault-tolerant SAC round."""

    average: np.ndarray
    n_peers: int
    k: int
    bits_sent: float
    messages_sent: int
    crashed: frozenset[int] = frozenset()
    #: subtotal indices that had to be fetched from replica holders
    recovered_shares: tuple[int, ...] = ()

    @property
    def gigabits(self) -> float:
        return self.bits_sent / 1e9


def fault_tolerant_sac(
    models: Sequence[np.ndarray],
    k: int,
    rng: np.random.Generator,
    leader: int = 0,
    crashed: set[int] | None = None,
    bits_per_param: int = DEFAULT_BITS_PER_PARAM,
    share_codec: str = "dense",
) -> FtSacResult:
    """Run one k-out-of-n SAC round (paper Alg. 4) at the ``leader``.

    Parameters
    ----------
    models:
        One weight tensor per peer (all ``n`` participate in the share
        exchange).
    k:
        Reconstruction threshold, ``1 <= k <= n``.
    rng:
        Randomness for the share splits: exactly ``n`` draws, the peers'
        seeds (:func:`~.sac.spawn_peer_seeds`).
    leader:
        The peer that reconstructs the average (a subgroup leader in the
        two-layer system).  Must not be in ``crashed``.
    crashed:
        Peers that crash *after* distributing their shares but before
        sending subtotals — the dropout scenario of Fig. 3 / Alg. 4
        lines 17–18.
    share_codec:
        ``"dense"`` (default) ships materialized share bundles;
        ``"seed"`` ships one PRG seed per replica group (the owner keeps
        the full residual at its own index, replicated to the other
        ``n-k`` holders), collapsing the exchange to O(d + n) payloads;
        ``"seed-dense"`` uses the same seed-derived shares materialized
        on the wire (bit-identical average, dense accounting).

    Raises
    ------
    SacReconstructionError
        If some subtotal index has no surviving holder (more than
        ``n - k`` adversarially placed crashes).
    """
    n = len(models)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    crashed = set(crashed or ())
    bad = {c for c in crashed if not 0 <= c < n}
    if bad:
        raise ValueError(f"crashed peer ids out of range: {sorted(bad)}")
    if leader in crashed:
        raise ValueError("the leader itself crashed; caller must re-elect first")
    if not 0 <= leader < n:
        raise ValueError(f"leader index {leader} out of range for n={n}")

    lost = missing_shares(crashed, n, k)
    if lost:
        raise SacReconstructionError(lost, crashed)

    # Phase 1 — share exchange (everyone participates; crashes happen
    # later) — and phase 2, subtotals: ps[j] = sum_i par_wt_{i j}; any
    # alive holder of index j can compute it (Alg. 4 lines 11-13).  ``k``
    # and the crashes decide who supplies a subtotal, never its value, so
    # the group kernel yields the average the leader will hold and the
    # rest of this function is the accounting of how it got there.
    with _obs.OBS.span("ftsac.share_exchange", n=n, k=k):
        average = reference_group_average(
            models, spawn_peer_seeds(rng, n), share_codec
        )
    w_bits = float(average.size * bits_per_param)
    # Peer j receives a bundle of n-k+1 shares from each of the other
    # n-1 peers: n(n-1)(n-k+1) share-sized payloads in total (dense).
    # Under the seed codec the residual sits at the owner's own index and
    # one seed serves a whole replica group, so only the n-k residual
    # *copies* travel as full vectors.
    phase1_msgs = n * (n - 1)
    if share_codec == "seed":
        dense_entries, seed_entries = seeded_exchange_entry_counts(n, k)
        phase1_bits = n * (
            dense_entries * w_bits + seed_entries * SEED_SHARE_BITS
        )
    else:
        phase1_bits = n * (n - 1) * (n - k + 1) * w_bits

    # Phase 3 — the leader assembles all n subtotals:
    #   - indices it holds itself (leader .. leader+n-k, mod n): free;
    #   - the primary subtotal of peers leader-k+1 .. leader-1: one
    #     message each if the peer is alive (Alg. 4 lines 14-16);
    #   - crashed primaries: fetched from a surviving replica holder
    #     (Alg. 4 lines 17-18).
    own = set(shares_held_by(leader, n, k))
    messages = phase1_msgs
    bits = phase1_bits
    recovered: list[int] = []
    with _obs.OBS.span("ftsac.reconstruct", n=n, k=k, node=leader):
        for j in range(n):
            if j in own:
                continue
            if j in crashed:
                # Ask a surviving replica holder for ps_wt_j.
                holders = [
                    h for h in holders_of_share(j, n, k) if h not in crashed
                ]
                assert holders, "missing_shares() should have caught this"
                recovered.append(j)
                if _obs.OBS.enabled:
                    _obs.OBS.emit(
                        "ftsac.recover", node=leader, index=j,
                        holder=holders[0],
                    )
            messages += 1
            bits += w_bits
    if _obs.OBS.enabled:
        _obs.OBS.emit(
            "ftsac.complete", node=leader, n=n, k=k,
            crashed=sorted(crashed), recovered=recovered, bits=bits,
        )
    return FtSacResult(
        average=average,
        n_peers=n,
        k=k,
        bits_sent=bits,
        messages_sent=messages,
        crashed=frozenset(crashed),
        recovered_shares=tuple(recovered),
    )


def expected_ft_sac_bits(
    n: int, k: int, w_params: int, bits_per_param: int = DEFAULT_BITS_PER_PARAM
) -> float:
    """Closed-form cost of one failure-free k-out-of-n SAC round.

    ``{n (n-1) (n-k+1) + (k-1)} |w|`` — Sec. VII-B.
    """
    w = w_params * bits_per_param
    return (n * (n - 1) * (n - k + 1) + (k - 1)) * float(w)
