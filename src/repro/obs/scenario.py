"""The ``python -m repro trace`` scenario.

One observability pipeline captures the three subsystems end to end:

1. **Raft failover** — a two-layer Raft deployment stabilizes, a
   subgroup leader is crashed, and the subgroup re-elects while the new
   leader joins the FedAvg layer (election + message-drop events).
2. **Clean wire round** — a full two-layer SAC/FedAvg round as network
   actors; its measured traffic must equal
   :func:`repro.core.costs.two_layer_ft_cost_from_topology` bit-for-bit
   (the accounting invariant the trace refactor must preserve).
3. **Dropout round** — a SAC round with a mid-round peer crash,
   exercising the Alg. 4 recovery fetch (recovery + drop events).

The scenario runs in the causal pipeline the caller installed; the
CLI's one capture path writes its artifacts (a JSONL event log, a
Prometheus text metrics dump, and a Chrome ``trace_event`` JSON that
renders the run as a timeline in Perfetto).  NOTE: this module is imported lazily (not from
``repro.obs.__init__``) because it pulls in ``repro.core``, which itself
imports the obs runtime.
"""

from __future__ import annotations

import numpy as np

from .logging import get_logger
from .runtime import Observability

log = get_logger("trace")

#: model size (parameters) used by the scenario rounds.
MODEL_PARAMS = 64


def run_trace_scenario(obs: Observability, *, seed: int = 0) -> dict:
    """Run the failover + wire-round scenario (9 peers in groups of 3,
    k = 2) in ``obs``, installed with ``causal=True``; return the
    summary it emits as ``scenario.summary``."""
    from ..core.costs import two_layer_ft_cost_from_topology
    from ..core.topology import Topology
    from ..core.wire_round import run_two_layer_wire_round
    from ..secure.protocol import run_sac_protocol
    from ..twolayer_raft.system import TwoLayerRaftSystem

    n_peers, group_size, k = 9, 3, 2
    topology = Topology.by_group_size(n_peers, group_size)
    rng = np.random.default_rng(seed)
    models = [rng.normal(size=MODEL_PARAMS) for _ in range(n_peers)]

    # Phase 1 — Raft failover: crash a subgroup leader, re-elect.
    system = TwoLayerRaftSystem(topology, seed=seed)
    system.stabilize()
    victim = system.subgroup_leader(1)
    assert victim is not None
    obs.emit("scenario.crash", t_ms=system.sim.now, node=victim,
             group=1, role="subgroup_leader")
    system.crash(victim)
    system.stabilize()
    obs.emit("scenario.recovered", t_ms=system.sim.now,
             new_leader=system.subgroup_leader(1))

    # Phase 2 — clean two-layer wire round: bit-exact traffic check.
    with obs.span("scenario.wire_round", peers=n_peers, k=k):
        result = run_two_layer_wire_round(topology, models, k=k, seed=seed)
    expected_bits = two_layer_ft_cost_from_topology(topology, k, MODEL_PARAMS)
    bits_exact = result.outcome.ok and result.bits_sent == expected_bits

    # Phase 3 — SAC round with a mid-round dropout (recovery fetch).
    # The victim is the last peer: with leader 0 holding subtotal
    # indices 0..n-k itself, position n-1 is one of the k-1 peers whose
    # primary subtotal the leader must receive.  Crashing it after its
    # share bundles have landed (t > delay_ms) but while its subtotal
    # is still in flight forces the Alg. 4 lines 17-18 replica fetch.
    n_dropout = group_size * 2
    with obs.span("scenario.sac_dropout", n=n_dropout, k=k):
        dropout = run_sac_protocol(
            models[:n_dropout], k=k, leader=0, seed=seed,
            crash_at={n_dropout - 1: 20.0},
        )

    # Causal critical paths: the longest send->deliver chain per
    # round.  For the clean wire round this must equal the round's
    # simulated finish time exactly (tested in tests/obs).
    from .causal import critical_paths_by_trace

    paths = critical_paths_by_trace(obs.events)
    wire_cp = paths.get(f"two_layer:s{seed}")
    elections = len(obs.events_named("raft.election.win"))
    drops = len(obs.events_named("net.drop"))
    summary = {
        "elections_won": elections,
        "messages_dropped": drops,
        "wire_round_completed": result.outcome.ok,
        "wire_round_bits": result.bits_sent,
        "expected_bits": expected_bits,
        "bits_exact": bits_exact,
        "dropout_round_completed": dropout.outcome.ok,
        "recovered_shares": list(dropout.recovered_shares),
        "events": len(obs.events),
        "critical_path_ms": (
            wire_cp.latency_ms if wire_cp is not None else None
        ),
        "critical_path_hops": (
            len(wire_cp.hops) if wire_cp is not None else 0
        ),
    }
    obs.emit("scenario.summary", t_ms=None, **summary)

    log.info(
        "elections won: %d, messages dropped: %d, recovered shares: %s",
        elections, drops, summary["recovered_shares"],
    )
    if wire_cp is not None:
        log.info("wire-round critical path: %.1f ms over %d hops",
                 wire_cp.latency_ms, len(wire_cp.hops))
    if bits_exact:
        log.info("wire-round traffic bit-exact: %.0f bits == closed form",
                 result.bits_sent)
    else:
        log.error("wire-round traffic MISMATCH: measured %.0f, expected %.0f",
                  result.bits_sent, expected_bits)
    return summary
