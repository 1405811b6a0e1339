"""X-layer aggregation over the simulated wire (paper Sec. VII-C, Eq. 10).

:func:`run_xlayer_wire_round` executes a :class:`MultiLayerTopology`
tree bottom-up over the :mod:`repro.simnet` wire — the scaling story of
the paper, run honestly: every share, subtotal and broadcast crosses the
simulated network with sampled latency, and the bits on the wire are
pinned bit-for-bit against the Eq. 10 closed forms in
:mod:`repro.core.costs`.

Everything is vectorized per *layer*, not per group, with the group
axis innermost:

- a layer's owners are one ``(n, d, G)`` copy: leaders (every member
  of the bottom layer) read their own model rows, the rest the ``(d,
  G)`` group sums the layer below hands up *by position* — layer k's
  followers are, in id order, the leaders of layer k + 1 — so there is
  no ``(d, N)`` copy of the models and no gather by peer id; one
  :func:`~repro.secure.batched.layer_group_sums` pass returns every
  group's sum as ``(d, G)``, consuming the RNG stream
  exactly as the materialised splits of the no-simulator reference
  :func:`multi_layer_aggregate` do — the aggregate it computes is
  identical;
- counts, input readiness and share bundles come up the same way and
  fold one ``(G,)`` column at a time, so every ufunc loop runs over
  groups, not over the ``n`` members of one group;
- the wire traffic of a layer is a handful of
  :meth:`~repro.simnet.network.Network.send_batch` delivery waves
  (``xl.share``, ``xl.subtotal`` / ``xl.upload``, then a top-down
  ``xl.bcast``), each one heap entry regardless of group count.

Peers are modelled by their ids alone (accounting waves, no actor
objects), which is what makes 10^5-10^6 simulated peers tractable.
Determinism contract: wave == per-item replay
(``tests/simnet/per_item.py``) — the ``xlayer_scale`` and
``chaos_scale`` sim pins run every round both ways and hold delivery
times, trace totals and the final average bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..obs import runtime as _obs
from ..secure.batched import draw_divide_noise, layer_group_sums
from ..secure.protocol import reliable_transport_opts
from ..secure.sac import DEFAULT_BITS_PER_PARAM, check_same_shape
from ..simnet import Network, Simulator
from ..simnet.network import DEFAULT_DELAY_MS, LatencyModel
from ..simnet.outcome import OUTCOME_COMPLETED, TIMED_OUT, RoundOutcome
from ..simnet.reliable import check_transport
from .multi_layer import MultiLayerTopology, _add_in_order

#: message kinds an X-layer round puts on the wire.
XLAYER_KINDS = ("xl.share", "xl.subtotal", "xl.upload", "xl.bcast")


def wave_engine_only(requested: str) -> None:
    """Accept the ``engine="wave"`` that ``bench/workloads.py`` passes."""
    if requested != "wave":
        raise ValueError(
            f"engine={requested!r}: the scalar delivery engine was removed; "
            "its per-item replay model is tests/simnet/per_item.py"
        )


def sequential_only(requested: str) -> None:
    """Accept the ``parallel="off"`` that ``bench/workloads.py`` passes."""
    if requested != "off":
        raise ValueError(
            f"parallel={requested!r}: the subgroup fan-out was removed; "
            "every round runs in one simulator on one thread"
        )


@dataclass(frozen=True)
class XLayerLayerStats:
    """Wire activity of one layer's aggregation step."""

    layer: int
    method: str
    groups: int
    start_ms: float  #: earliest group start (all member inputs ready)
    done_ms: float  #: latest leader-ready time
    bits: float
    messages: int


@dataclass(frozen=True)
class XLayerWireResult:
    """Outcome of one X-layer round over the simulated wire."""

    average: np.ndarray
    finish_time_ms: float  #: last model broadcast arrival
    agg_done_ms: float  #: root aggregate complete (before distribution)
    bits_sent: float
    messages_sent: int
    n_peers: int
    n_groups: int
    layer_stats: tuple[XLayerLayerStats, ...]
    bits_by_kind: dict
    heap_stats: dict
    #: wire-level round outcome.  The aggregate math always completes
    #: (accounting waves carry no protocol state), but under loss or
    #: faults a needed delivery may never land — then ``finish_time_ms``
    #: is ``inf`` and the outcome is a typed timeout naming the cause.
    outcome: RoundOutcome = OUTCOME_COMPLETED
    transport: str = "fire_and_forget"
    retransmits: int = 0
    acks: int = 0
    duplicates: int = 0
    exhausted: int = 0
    exhausted_undelivered: int = 0
    dropped: int = 0

    @property
    def gigabits(self) -> float:
        return self.bits_sent / 1e9


def _landed(times: np.ndarray) -> np.ndarray:
    """Delivery times for the dependency dataflow: never-landed → inf.

    The wave engine reports ``NaN`` for messages that never reached
    their destination (all attempts lost, budget exhausted undelivered,
    sender abandoned, receiver crashed).  For the round's dependency
    chain that means "waits forever": ``inf`` propagates correctly
    through the ``max`` reductions and downstream departure times, and
    keeps the heap orderable (``NaN`` would poison comparisons).  Times
    that all landed come back as they are.
    """
    if not np.isnan(times).any():
        return times
    return np.where(np.isnan(times), np.inf, times)


def _latest(first: np.ndarray, wave, g: int, n: int) -> np.ndarray:
    """Per group, the later of ``first`` and its ``n - 1`` leader-bound
    arrivals in ``wave`` (group-major), one column of groups at a time."""
    arrivals = _landed(wave.delivery_times).reshape(g, n - 1)
    done = first.copy()
    for c in range(n - 1):
        np.maximum(done, arrivals[:, c], out=done)
    return done


def run_xlayer_wire_round(
    topology: MultiLayerTopology,
    models: np.ndarray | Sequence[np.ndarray],
    seed: int = 0,
    bits_per_param: int = DEFAULT_BITS_PER_PARAM,
    method_for_layer: Callable[[int], str] | None = None,
    latency: LatencyModel | None = None,
    engine: str = "wave",
    parallel: str = "off",
    loss_rate: float = 0.0,
    transport: str = "fire_and_forget",
    transport_opts: dict | None = None,
    schedule=None,
) -> XLayerWireResult:
    """Run one X-layer aggregation round over the simulated wire.

    ``models`` is an ``(N, d)`` array (or sequence of ``d``-vectors),
    one row per peer in breadth-first id order.  Values are carried as
    ``(sum, count)`` pairs exactly as in
    :func:`~repro.core.multi_layer.multi_layer_aggregate` — with the
    same ``seed`` the returned ``average`` is identical.

    Per layer (bottom-up), a SAC group of size ``n`` ships
    ``n (n-1)`` shares and ``n-1`` subtotals of ``|w|`` bits; a FedAvg
    group ships ``n-1`` uploads; distribution of the final model adds
    one ``|w|`` message per non-root peer.  Totals equal
    :func:`repro.core.costs.multi_layer_cost_bits` (all-SAC) or
    :func:`~repro.core.costs.multi_layer_message_count` ``* |w|`` bit for bit
    (under ``transport="reliable"`` retransmitted frames and ACKs add
    honestly accounted overhead on top).

    ``loss_rate`` drops each physical frame i.i.d.; it requires
    ``transport="reliable"`` (stop-and-wait ACK/retransmit, vectorized
    into attempt cohorts — see ``docs/performance.md``).  ``schedule``
    is an optional :class:`repro.chaos.FaultSchedule`; it is compiled to
    a :class:`repro.chaos.FaultTimeline` so crashes, partitions, loss
    windows and delay spikes apply to every wave at issue time.  A
    delivery that never lands (budget exhausted, sender abandoned,
    receiver down) propagates ``inf`` through the dependency dataflow
    and the round degrades to a typed ``timed_out`` outcome.
    """
    wave_engine_only(engine)
    sequential_only(parallel)
    check_transport(transport)
    if method_for_layer is None:
        method_for_layer = lambda layer: "sac"
    n = topology.n
    n_peers = topology.n_peers
    check_same_shape(models)
    rows = np.asarray(models, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] != n_peers:
        raise ValueError(
            f"expected {n_peers} model rows, got shape {rows.shape}"
        )
    d = rows.shape[1]
    w_bits = float(d * bits_per_param)
    share_rng = np.random.default_rng(seed)
    net_rng = np.random.default_rng([seed, 1])
    sim = Simulator()
    if transport == "reliable":
        transport_opts = reliable_transport_opts(
            getattr(latency, "delay_ms", DEFAULT_DELAY_MS), transport_opts
        )
    net = Network(sim, latency=latency, rng=net_rng, loss_rate=loss_rate,
                  transport=transport, transport_opts=transport_opts)
    timeline = None
    if schedule is not None:
        schedule.validate_nodes(range(n_peers))
        timeline = schedule.timeline(loss_rate)
        net.fault_timeline = timeline
    lossy = loss_rate > 0.0 or (
        timeline is not None and timeline.max_loss_rate > 0.0
    )
    if lossy and transport != "reliable":
        raise ValueError(
            "lossy X-layer rounds need transport='reliable' (fire-and-forget "
            "drops would stall the aggregation dataflow)"
        )

    layer_stats: list[XLayerLayerStats] = []
    obs = _obs.OBS

    # Share pairs (i, j != i) in owner-major order, fixed per layer.
    pair_i, pair_j = np.where(~np.eye(n, dtype=bool))

    with obs.span("xlayer.round", clock=lambda: sim.now,
                  peers=n_peers, depth=topology.depth):
        # ---------------------------------------------- bottom-up layers
        # The leaders of layer k + 1 are, in order, the followers of
        # layer k (all n members of layer 1): each layer hands its
        # results up by position, carry = (gsum (d, G), gcnt, done), and
        # leaders (all members of the bottom layer) read their own rows.
        carry = None
        for layer in range(topology.depth, 0, -1):
            method = method_for_layer(layer)
            if method not in ("sac", "fedavg"):
                raise ValueError(f"unknown aggregation method {method!r}")
            members = topology.member_matrix(layer)  # (G, n)
            g = members.shape[0]
            leaders = members[:, 0]
            lo = int(leaders[0])  # ids: g leaders, then their followers
            k = 0 if carry is None else n if layer == 1 else n - 1
            vals = np.empty((n, d, g))  # owner i of group g: vals[i, :, g]
            gcnt = np.full(g, n - k, dtype=np.int64)
            start = np.zeros(g)
            if k < n:
                vals[0] = rows[lo:lo + g].T
            if k == 0:
                own = rows[lo + g:].reshape(g, n - 1, d)
                vals[1:] = own.transpose(1, 2, 0)
            else:
                csum, ccnt, cdone = carry
                vals[n - k:] = csum.reshape(d, g, k).transpose(2, 0, 1)
                ccnt, cdone = ccnt.reshape(g, k), cdone.reshape(g, k)
                for c in range(k):
                    np.add(gcnt, ccnt[:, c], out=gcnt)
                    np.maximum(start, cdone[:, c], out=start)
            if method == "sac":
                rn, totals = draw_divide_noise(g * n, n, share_rng)
                gsum = layer_group_sums(vals, rn, totals)
                # Shares: every ordered pair within each group, all
                # departing when the group's last input is ready.
                share_wave = net.send_batch(
                    members.take(pair_i, axis=1).reshape(-1),
                    members.take(pair_j, axis=1).reshape(-1),
                    size_bits=w_bits, kind="xl.share",
                    at_times=np.repeat(start, n * (n - 1)),
                )
                arrivals = _landed(share_wave.delivery_times).reshape(
                    g, n * (n - 1)
                )
                # bundle[j, g]: member j holds all its shares (its own
                # needs no wire hop, so only incoming arrivals count).
                bundle = np.tile(start, (n, 1))
                for p, j in enumerate(pair_j):
                    np.maximum(bundle[j], arrivals[:, p], out=bundle[j])
                sub_wave = net.send_batch(
                    members[:, 1:].reshape(-1),
                    np.repeat(leaders, n - 1),
                    size_bits=w_bits, kind="xl.subtotal",
                    at_times=bundle[1:].T.reshape(-1),
                )
                done = _latest(bundle[0], sub_wave, g, n)
                bits = g * (n * n - 1) * w_bits
                msgs = g * (n * n - 1)
            else:
                gsum = _add_in_order(vals.swapaxes(0, 1))
                up_wave = net.send_batch(
                    members[:, 1:].reshape(-1),
                    np.repeat(leaders, n - 1),
                    size_bits=w_bits, kind="xl.upload",
                    at_times=np.repeat(start, n - 1),
                )
                done = _latest(start, up_wave, g, n)
                bits = g * (n - 1) * w_bits
                msgs = g * (n - 1)
            carry = gsum, gcnt, done
            layer_stats.append(XLayerLayerStats(
                layer=layer, method=method, groups=g,
                start_ms=float(start.min()), done_ms=float(done.max()),
                bits=bits, messages=msgs,
            ))
        agg_done = float(done[0])

        # ------------------------------------------- top-down broadcast
        # Each group leader relays the final model to its followers; the
        # root already has it.  (N - 1) messages of |w| bits in total.
        # Arrivals come down by position, as the sums went up.
        reached = [np.array([agg_done])]  # root, then layer followers
        for layer in range(1, topology.depth + 1):
            members = topology.member_matrix(layer)
            lead = np.concatenate(reached) if layer == 2 else reached[-1]
            bcast_wave = net.send_batch(
                np.repeat(members[:, 0], n - 1),
                members[:, 1:].reshape(-1),
                size_bits=w_bits, kind="xl.bcast",
                at_times=np.repeat(lead, n - 1),
            )
            reached.append(_landed(bcast_wave.delivery_times))
        finish = max(float(t.max()) for t in reached)

        # Drain the wire: replays every wave's deliveries through the
        # heap, filling the byte-accounting trace.  Reliable transport
        # multiplies heap items by up to the attempt budget, hence the
        # larger event allowance.
        sim.run(max_events=max(10_000_000, 16 * n_peers * (n + 2)))

    layer_stats.reverse()  # top layer first, reading order
    average = gsum[:, 0] / gcnt[0]
    assert int(gcnt[0]) == n_peers
    rel = net.reliable
    if np.isfinite(finish):
        outcome = OUTCOME_COMPLETED
    else:
        stalled = sum(int(np.isinf(t).sum()) for t in reached)
        if rel is not None:
            reason = (
                f"{stalled} peers never reached: "
                f"{rel.exhausted_undelivered} sends exhausted undelivered, "
                f"{net.trace.total_dropped} frames dropped"
            )
        else:
            reason = (
                f"{stalled} peers never reached "
                f"({net.trace.total_dropped} frames dropped, no retransmit)"
            )
        outcome = RoundOutcome(TIMED_OUT, reason)
    return XLayerWireResult(
        average=average,
        finish_time_ms=finish,
        agg_done_ms=agg_done,
        bits_sent=net.trace.total_bits,
        messages_sent=net.trace.total_messages,
        n_peers=n_peers,
        n_groups=topology.n_groups,
        layer_stats=tuple(layer_stats),
        bits_by_kind=net.trace.by_kind(),
        heap_stats=sim.heap_stats(),
        outcome=outcome,
        transport=transport,
        retransmits=0 if rel is None else rel.retransmits,
        acks=0 if rel is None else rel.acks_sent,
        duplicates=0 if rel is None else rel.duplicates_suppressed,
        exhausted=0 if rel is None else len(rel.exhausted),
        exhausted_undelivered=(
            0 if rel is None else rel.exhausted_undelivered
        ),
        dropped=net.trace.total_dropped,
    )
