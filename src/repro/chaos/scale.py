"""Chaos campaigns at scale: lossy reliable X-layer rounds, 10^5+ peers.

The chaos matrix (:mod:`repro.chaos.runner`) grades small actor-based
rounds.  This module is the other end of the scale axis: one X-layer
accounting round (:func:`repro.core.xlayer_wire.run_xlayer_wire_round`)
at ``10^5``–``10^6`` peers with random frame loss, the stop-and-wait
reliable transport and an optional fault schedule — the configuration
that is only tractable because the wave engine vectorizes the
ACK/retransmit state machine into per-attempt cohorts (see
``docs/performance.md``).  ``python -m repro chaos --scale N`` and the
``chaos_scale`` sim pin both drive :func:`run_scale_trial`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core.costs import multi_layer_total_peers
from ..core.multi_layer import MultiLayerTopology
from ..core.xlayer_wire import run_xlayer_wire_round, wave_engine_only
from .schedule import Crash, DelaySpike, FaultSchedule, LossWindow, Recover

#: default random frame-loss probability for scale trials.
DEFAULT_LOSS_RATE = 0.2
#: leaf crashes recover this deep into the round — inside the reliable
#: transport's retry horizon (base_rto * (2^max_attempts - 1) with the
#: defaults), so held frames land instead of being abandoned.
_CRASH_MS, _RECOVER_MS = 10.0, 500.0


def scale_topology(target_peers: int, depth: int) -> MultiLayerTopology:
    """Smallest ``n``-ary X-layer tree of ``depth`` with >= target peers."""
    if target_peers < 2:
        raise ValueError("target_peers must be >= 2")
    n = 2
    while multi_layer_total_peers(n, depth) < target_peers:
        n += 1
    return MultiLayerTopology(n=n, depth=depth)


def scale_schedule(
    topology: MultiLayerTopology,
    loss_bump: float = 0.15,
    n_crashes: int = 5,
) -> FaultSchedule:
    """The scale campaign's fault script, deterministic in the topology.

    A mid-round loss bump, a global delay spike, and ``n_crashes``
    crash/recover pairs on the highest-id leaf followers (never
    leaders — leader loss needs Raft re-election, out of scope for the
    accounting round).  Recovery lands inside the retransmit horizon so
    the round is expected to *complete* under default budgets.
    """
    events: list = [
        LossWindow(50.0, 250.0, min(0.95, DEFAULT_LOSS_RATE + loss_bump)),
        DelaySpike(100.0, 300.0, 10.0),
    ]
    # Every peer above the deepest layer leads a group there (and peer 0
    # the top group), so with breadth-first ids the non-leaders are the
    # ids from ``n_groups - 1`` up.
    first_leaf = max(topology.n_groups - 1, 1)
    leaves = range(topology.n_peers - 1, first_leaf - 1, -1)
    for node in leaves[:max(n_crashes, 0)]:
        events.append(Crash(_CRASH_MS, node))
        events.append(Recover(_RECOVER_MS, node))
    return FaultSchedule(events)


@dataclass(frozen=True)
class ScaleReport:
    """One chaos-at-scale trial."""

    n: int
    depth: int
    n_peers: int
    loss_rate: float
    chaos: bool
    wall_s: float
    finish_ms: float
    outcome: str
    average_sum: float  #: aggregate checksum for wave == per-item identity
    bits_sent: float
    messages_sent: int
    retransmits: int
    acks: int
    duplicates: int
    exhausted: int
    dropped: int
    heap: dict = field(default_factory=dict)


def run_scale_trial(
    target_peers: int,
    depth: int = 10,
    loss_rate: float = DEFAULT_LOSS_RATE,
    seed: int = 0,
    engine: str = "wave",
    chaos: bool = True,
    dim: int = 8,
    parallel: str = "off",
    max_attempts: int | None = None,
) -> ScaleReport:
    """One lossy reliable X-layer round at ``target_peers`` scale.

    The acceptance benchmark replays the same round one heap entry per
    item (``tests/simnet/per_item.py``) and asserts the two reports
    byte-identical (``wall_s`` and the heap telemetry excluded);
    ``engine`` accepts only ``"wave"``.  With the default
    8-attempt budget a 20 % loss round at 10^5+ peers almost surely
    sees a handful of exhausted sends (0.2^8 per message) and degrades
    to a typed timeout; raise ``max_attempts`` to make completion the
    expected outcome.  At 118,096 peers 12 attempts still leave about
    one seed in 75 with an undelivered send (seed 156) and 16 still
    does for seed 37; at 32 none of seeds 1-159 degrades, which is what
    the repo benchmark's ``xlayer_lossy`` workload uses.
    """
    wave_engine_only(engine)
    topology = scale_topology(target_peers, depth)
    models = np.random.default_rng([seed, 7]).normal(
        size=(topology.n_peers, dim)
    )
    schedule = scale_schedule(topology) if chaos else None
    opts = None if max_attempts is None else {"max_attempts": max_attempts}
    t0 = time.perf_counter()
    result = run_xlayer_wire_round(
        topology, models, seed=seed, parallel=parallel,
        loss_rate=loss_rate, transport="reliable", transport_opts=opts,
        schedule=schedule,
    )
    wall = time.perf_counter() - t0
    return ScaleReport(
        n=topology.n, depth=depth, n_peers=topology.n_peers,
        loss_rate=loss_rate, chaos=chaos,
        wall_s=wall, finish_ms=result.finish_time_ms,
        outcome=result.outcome.status,
        average_sum=float(result.average.sum()),
        bits_sent=result.bits_sent, messages_sent=result.messages_sent,
        retransmits=result.retransmits, acks=result.acks,
        duplicates=result.duplicates, exhausted=result.exhausted,
        dropped=result.dropped, heap=dict(result.heap_stats),
    )
