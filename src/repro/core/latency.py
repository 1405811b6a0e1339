"""Round wall-clock latency model (beyond-paper analysis).

The paper evaluates communication *volume* (Figs. 13-14); volume buys
wall-clock time through each peer's uplink.  This model assumes every
peer serializes its outgoing messages on an uplink of ``bandwidth_bps``
while transfers to distinct receivers proceed in parallel — the standard
first-order model of a P2P swarm.  Every hop adds a propagation delay of
:data:`~repro.simnet.network.DEFAULT_DELAY_MS` (the paper's 15 ms).

Per aggregation round of the two-layer system:

1. **SAC phase 1** (per subgroup, concurrent across subgroups): each
   peer pushes ``n-1`` bundles of ``n-k+1`` shares — uplink busy for
   ``(n-1)(n-k+1) * t_w``, last bundle lands one propagation delay later.
2. **SAC phase 2**: ``k-1`` subtotal uploads to the leader (concurrent
   senders): ``t_w + delay``.
3. **FedAvg**: subgroup leaders upload concurrently (``t_w + delay``),
   and the global model is re-broadcast down two hops
   (``2 * (t_w + delay)``) — leaders relay to their members.

One-layer SAC (Alg. 2) pays ``(N-1) t_w`` of uplink in *each* of its two
phases, which is what makes it slow in wall-clock as well as in volume.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass

from ..secure.sac import DEFAULT_BITS_PER_PARAM
from ..simnet.network import DEFAULT_DELAY_MS
from .topology import Topology


@dataclass(frozen=True)
class RoundLatency:
    """Wall-clock breakdown of one aggregation round (milliseconds)."""

    sac_ms: float
    fedavg_ms: float
    broadcast_ms: float

    @property
    def total_ms(self) -> float:
        return self.sac_ms + self.fedavg_ms + self.broadcast_ms


def _transfer_ms(w_params: int, bandwidth_bps: float) -> float:
    if w_params < 1 or bandwidth_bps <= 0:
        raise ValueError("w_params and bandwidth must be positive")
    return 1000.0 * w_params * DEFAULT_BITS_PER_PARAM / bandwidth_bps


def ft_sac_latency_ms(n: int, k: int, w_params: int, bandwidth_bps: float) -> float:
    """Wall-clock of one k-out-of-n SAC round under uplink serialization."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if n == 1:
        return 0.0
    t_w = _transfer_ms(w_params, bandwidth_bps)
    phase1 = (n - 1) * (n - k + 1) * t_w + DEFAULT_DELAY_MS
    phase2 = (t_w + DEFAULT_DELAY_MS) if k > 1 else 0.0
    return phase1 + phase2


def one_layer_sac_latency_ms(n_peers: int, w_params: int, bandwidth_bps: float) -> float:
    """Wall-clock of Alg. 2: share exchange + subtotal broadcast, each
    costing ``(N-1) t_w`` of uplink plus a propagation delay."""
    if n_peers < 1:
        raise ValueError("need at least one peer")
    if n_peers == 1:
        return 0.0
    t_w = _transfer_ms(w_params, bandwidth_bps)
    per_phase = (n_peers - 1) * t_w + DEFAULT_DELAY_MS
    return 2 * per_phase


def multi_layer_round_latency_ms(depth: int, delay_ms: float = 15.0) -> float:
    """Finish time of one X-layer round under a fixed per-hop delay.

    With every link costing exactly ``delay_ms`` (no bandwidth term),
    each SAC layer takes two hops (share exchange, then subtotal
    collection); layers aggregate strictly bottom-up, and distribution
    relays the final model down ``depth`` leader hops.  This is the
    closed form the X-layer wire round's ``finish_time_ms`` must
    reproduce exactly under
    :class:`~repro.simnet.network.FixedLatency` — the CLI's
    measured-vs-closed-form delta.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    finish = 0.0
    for _ in range(3 * depth):  # hop by hop, as the wire adds them
        finish += delay_ms
    return finish


def two_layer_round_latency_ms(
    topology: Topology,
    k: int | None,
    w_params: int,
    bandwidth_bps: float,
) -> RoundLatency:
    """Wall-clock of one full two-layer aggregation round."""
    return two_layer_round_latency_from_sizes(
        Counter(topology.group_sizes), k, w_params, bandwidth_bps
    )


def two_layer_round_latency_from_sizes(
    sizes: Mapping[int, int],
    k: int | None,
    w_params: int,
    bandwidth_bps: float,
) -> RoundLatency:
    """Wall-clock of one two-layer round over a subgroup-size multiset
    (size -> count).

    Subgroups run SAC concurrently (the slowest gates the round); then
    leaders upload to the FedAvg leader and the result is re-broadcast
    through the leaders to every member.
    """
    t_w = _transfer_ms(w_params, bandwidth_bps)
    m = sum(sizes.values())
    sac = max(
        ft_sac_latency_ms(
            size,
            min(k, size) if k is not None else size,
            w_params,
            bandwidth_bps,
        )
        for size in sizes
    )
    # Leaders upload concurrently; the FedAvg leader's own value is local.
    delay_ms = DEFAULT_DELAY_MS
    fedavg = (t_w + delay_ms) if m > 1 else 0.0
    # Two-hop broadcast: FedAvg leader -> leaders -> members.  The FedAvg
    # leader pushes m-1 copies down its uplink; each leader then pushes
    # n_i - 1 copies concurrently with its peers.
    down1 = (m - 1) * t_w + delay_ms if m > 1 else 0.0
    max_followers = max(sizes) - 1
    down2 = (max_followers * t_w + delay_ms) if max_followers > 0 else 0.0
    return RoundLatency(sac_ms=sac, fedavg_ms=fedavg, broadcast_ms=down1 + down2)
