"""Closed-form communication costs (paper Secs. III-B and VII).

All functions return **bits per aggregation round**.  ``w_params`` is the
number of model parameters; each travels as a 32-bit float, so
``|w| = w_params * DEFAULT_BITS_PER_PARAM`` — with the Fig. 5 CNN
(1,250,858 params) these formulas reproduce the paper's Gb figures
exactly (7.12 Gb at N=30, m=6; 196.13 Gb baseline at N=50).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping

from ..secure.replicated import seeded_exchange_entry_counts
from ..secure.seedshare import SEED_SHARE_BITS
from .topology import Topology

DEFAULT_BITS_PER_PARAM = 32


def _w_bits(w_params: int) -> float:
    if w_params < 1:
        raise ValueError("w_params must be positive")
    return float(w_params * DEFAULT_BITS_PER_PARAM)


def one_layer_sac_cost_bits(n_peers: int, w_params: int) -> float:
    """Baseline one-layer SAC: ``2 N (N-1) |w|`` (Sec. III-B)."""
    if n_peers < 1:
        raise ValueError("need at least one peer")
    return 2 * n_peers * (n_peers - 1) * _w_bits(w_params)


def two_layer_cost_bits(m: int, n: int, w_params: int) -> float:
    """Two-layer n-out-of-n cost: ``(m n^2 + m n - 2) |w|`` (Eq. 4).

    Assumes ``N = n m`` evenly sized subgroups.  The three summands are
    SAC in all subgroups ``m (n^2 - 1) |w|``, broadcast of the global
    model ``m (n - 1) |w|``, and FedAvg among leaders ``2 (m - 1) |w|``.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    return (m * n * n + m * n - 2) * _w_bits(w_params)


def two_layer_ft_cost_bits(n_total: int, m: int, n: int, k: int, w_params: int) -> float:
    """Two-layer k-out-of-n cost: ``{(n^2 - kn + k) N + km - 2} |w|`` (Eq. 5).

    ``n_total`` is N; the paper derives the formula under ``N = n m``.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if m < 1 or n_total < 1:
        raise ValueError("m and N must be >= 1")
    return ((n * n - k * n + k) * n_total + k * m - 2) * _w_bits(w_params)


def seeded_exchange_bits(n: int, k: int, w_params: int) -> float:
    """Phase-1 share-exchange bits for one seeded k-out-of-n subgroup.

    ``n [(n-k) |w| + ((n-1)(n-k+1) - (n-k)) seed_bits]`` — each owner
    ships ``n-k`` residual copies (the other holders of its own index)
    and seeds for everything else.  At ``k = n`` this is the pure-seed
    fast path ``n (n-1) seed_bits``: O(d + n) per peer instead of O(d n).
    """
    w = _w_bits(w_params)
    dense_entries, seed_entries = seeded_exchange_entry_counts(n, k)
    return n * (dense_entries * w + seed_entries * float(SEED_SHARE_BITS))


def two_layer_seeded_cost_from_topology(
    topology: Topology, k: int | None, w_params: int
) -> float:
    """Exact seeded two-layer cost for uneven subgroup sizes.

    ``k=None`` selects n-out-of-n per subgroup.  This is the closed form
    the wire tests pin against
    :func:`repro.core.wire_round.run_two_layer_wire_round` with
    ``share_codec="seed"``.
    """
    w = _w_bits(w_params)
    m = topology.n_groups
    total = 0.0
    for s in topology.group_sizes:
        k_eff = s if k is None else k
        if k_eff > s:
            raise ValueError(f"threshold k={k_eff} exceeds subgroup size {s}")
        total += seeded_exchange_bits(s, k_eff, w_params)
        total += (k_eff - 1) * w  # subtotal collection at the leader
        total += (s - 1) * w  # broadcast of the global model
    total += 2 * (m - 1) * w  # FedAvg among the leaders
    return total


def two_layer_cost_from_topology(topology: Topology, w_params: int) -> float:
    """Exact n-out-of-n cost for uneven subgroup sizes.

    ``sum_i (n_i^2 - 1)|w|`` (SAC per subgroup) + ``sum_i (n_i - 1)|w|``
    (broadcast) + ``2 (m - 1)|w|`` (FedAvg).  Coincides with Eq. 4 when
    all subgroups have exactly ``n`` members.
    """
    w = _w_bits(w_params)
    m = topology.n_groups
    sac = sum(s * s - 1 for s in topology.group_sizes)
    bcast = sum(s - 1 for s in topology.group_sizes)
    return (sac + bcast + 2 * (m - 1)) * w


def two_layer_ft_cost_from_sizes(
    sizes: Mapping[int, int], k: int, w_params: int
) -> float:
    """Exact k-out-of-n cost of a subgroup-size multiset (size -> count),
    Sec. VII-B terms: per subgroup of ``s`` peers, ``s (s-1) (s-k+1) +
    (k-1)`` for SAC and ``s - 1`` for the broadcast; ``2 (m - 1)`` for
    FedAvg among the ``m`` leaders.  The sum is an exact integer, so the
    order of the groups does not move a bit."""
    w = _w_bits(w_params)
    total = 0
    for s, count in sizes.items():
        if k > s:
            raise ValueError(f"threshold k={k} exceeds subgroup size {s}")
        total += count * (s * (s - 1) * (s - k + 1) + (k - 1) + (s - 1))
    return (total + 2 * (sum(sizes.values()) - 1)) * w


def two_layer_ft_cost_from_topology(topology: Topology, k: int, w_params: int) -> float:
    """Exact k-out-of-n cost for uneven subgroup sizes (Sec. VII-B terms)."""
    return two_layer_ft_cost_from_sizes(
        Counter(topology.group_sizes), k, w_params
    )


def multi_layer_cost_bits(n: int, depth: int, w_params: int) -> float:
    """X-layer n-out-of-n cost: ``(N - 1)(n + 2) |w|`` (Eq. 10).

    ``N = sum_{k=1}^{X} n (n-1)^{k-1}`` (Eq. 6).
    """
    if n < 2:
        raise ValueError("multi-layer trees need n >= 2")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    total_peers = multi_layer_total_peers(n, depth)
    return (total_peers - 1) * (n + 2) * _w_bits(w_params)


def multi_layer_total_peers(n: int, depth: int) -> int:
    """Eq. 6: ``N = sum_{k=1}^{X} n (n-1)^{k-1}``."""
    return sum(n * (n - 1) ** (k - 1) for k in range(1, depth + 1))


def multi_layer_groups_at(n: int, layer: int) -> int:
    """Number of subgroups at a given layer of the X-layer tree."""
    if layer < 1:
        raise ValueError("layer must be >= 1")
    return 1 if layer == 1 else n * (n - 1) ** (layer - 2)


def multi_layer_message_count(n: int, depth: int) -> int:
    """Wire messages of one X-layer round (every message carries ``|w|``).

    Every layer runs SAC: ``n (n-1)`` shares plus ``n-1`` subtotals per
    group; distribution adds ``N-1`` broadcasts.  Multiplying by ``|w|``
    gives exactly :func:`multi_layer_cost_bits`, which is how the wire
    tests pin :func:`repro.core.xlayer_wire.run_xlayer_wire_round` to
    Eq. 10.
    """
    if n < 2:
        raise ValueError("multi-layer trees need n >= 2")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    groups = sum(multi_layer_groups_at(n, layer) for layer in range(1, depth + 1))
    return groups * (n * n - 1) + multi_layer_total_peers(n, depth) - 1


def reduction_factor(n_total: int, m: int, n: int, k: int | None) -> float:
    """Baseline-over-proposed cost ratio (the paper's "10.36x" numbers).

    ``k=None`` selects the n-out-of-n system (Eq. 4), otherwise Eq. 5;
    ``|w|`` cancels.
    """
    baseline = one_layer_sac_cost_bits(n_total, 1)
    if k is None:
        ours = two_layer_cost_bits(m, n, 1)
    else:
        ours = two_layer_ft_cost_bits(n_total, m, n, k, 1)
    return baseline / ours
