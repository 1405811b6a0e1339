"""The leader-crash cases of Sec. V, instrumented for Figs. 10-12.

Each *trial* builds a fresh system, lets it stabilize, injects one crash
and measures recovery times from the crash instant:

- :func:`subgroup_leader_recovery_trial` — Fig. 10 (time to detect the
  crash and elect a new subgroup leader) and Fig. 11 (additionally, time
  for the new leader to join the FedAvg group);
- :func:`fedavg_leader_recovery_trial` — Fig. 12 (FedAvg leader crash:
  both layers re-elect, then the new subgroup leader joins).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..core.topology import Topology
from .system import SystemEvent, TwoLayerRaftSystem

#: how long a stabilized system runs (plus a random heartbeat phase)
#: before a recovery trial crashes its leader.
_SETTLE_MS = 2_000.0


@dataclass(frozen=True)
class RecoveryTimes:
    """Recovery latencies (ms) relative to the crash instant."""

    crash_time: float
    sub_elect_ms: Optional[float] = None
    join_fedavg_ms: Optional[float] = None
    fed_elect_ms: Optional[float] = None

    @property
    def full_recovery_ms(self) -> Optional[float]:
        parts = [
            t
            for t in (self.sub_elect_ms, self.join_fedavg_ms, self.fed_elect_ms)
            if t is not None
        ]
        return max(parts) if parts else None


def _default_system(seed: int, timeout_base_ms: float, **kw) -> TwoLayerRaftSystem:
    """The paper's N=25, n=5 evaluation network (Sec. VI-B1)."""
    topo = kw.pop("topology", None) or Topology.by_group_count(25, 5)
    return TwoLayerRaftSystem(
        topo, timeout_base_ms=timeout_base_ms, seed=seed, **kw
    )


def _first_event_after(
    system: TwoLayerRaftSystem,
    t0: float,
    kind: str,
    predicate: Callable[[SystemEvent], bool] = lambda e: True,
) -> Optional[SystemEvent]:
    for event in system.events:
        if event.time > t0 and event.kind == kind and predicate(event):
            return event
    return None


def _run_until_event(
    system: TwoLayerRaftSystem,
    t0: float,
    kind: str,
    predicate: Callable[[SystemEvent], bool] = lambda e: True,
    max_ms: float = 60_000.0,
) -> Optional[SystemEvent]:
    deadline = t0 + max_ms
    step = 10.0
    while system.sim.now < deadline:
        event = _first_event_after(system, t0, kind, predicate)
        if event is not None:
            return event
        system.sim.run_until(system.sim.now + step)
    return _first_event_after(system, t0, kind, predicate)


def subgroup_leader_recovery_trial(
    seed: int,
    timeout_base_ms: float = 50.0,
    **system_kw,
) -> RecoveryTimes:
    """Crash one subgroup leader (not the FedAvg leader) and measure
    re-election (Fig. 10) and FedAvg re-join (Fig. 11) latencies."""
    system = _default_system(seed, timeout_base_ms, **system_kw)
    system.stabilize()
    # Crash at a random phase of the heartbeat schedule, as a real crash
    # would land (a fixed settle time would alias with the heartbeat
    # period and bias the detection latency).
    jitter = float(np.random.default_rng(seed ^ 0x5EED).uniform(0, 4 * timeout_base_ms))
    system.run_for(_SETTLE_MS + jitter)

    # Pick a subgroup whose leader is NOT the FedAvg leader, so only the
    # SAC layer is disturbed (Sec. V-A1).
    fed_leader = system.fed_leader()
    gi = 0
    victim = system.subgroup_leader(gi)
    while victim is None or victim == fed_leader:
        gi = (gi + 1) % system.topology.n_groups
        victim = system.subgroup_leader(gi)

    t0 = system.sim.now
    system.crash(victim)

    elected = _run_until_event(
        system, t0, "sub_leader", lambda e: e.group == gi
    )
    if elected is None:
        return RecoveryTimes(crash_time=t0)
    joined = _run_until_event(
        system, t0, "joined_fedavg", lambda e: e.peer == elected.peer
    )
    return RecoveryTimes(
        crash_time=t0,
        sub_elect_ms=elected.time - t0,
        join_fedavg_ms=(joined.time - t0) if joined is not None else None,
    )


def fedavg_leader_recovery_trial(
    seed: int,
    timeout_base_ms: float = 50.0,
    **system_kw,
) -> RecoveryTimes:
    """Crash the FedAvg leader (Sec. V-B1) and measure: the FedAvg-layer
    re-election, the subgroup re-election, and the new subgroup leader's
    join — Fig. 12 reports the maximum (full system recovery)."""
    system = _default_system(seed, timeout_base_ms, **system_kw)
    system.stabilize()
    jitter = float(np.random.default_rng(seed ^ 0x5EED).uniform(0, 4 * timeout_base_ms))
    system.run_for(_SETTLE_MS + jitter)

    victim = system.fed_leader()
    assert victim is not None
    gi = system.peers[victim].group_index
    t0 = system.sim.now
    system.crash(victim)

    fed_elected = _run_until_event(system, t0, "fed_leader")
    sub_elected = _run_until_event(
        system, t0, "sub_leader", lambda e: e.group == gi
    )
    joined = None
    if sub_elected is not None:
        joined = _run_until_event(
            system, t0, "joined_fedavg", lambda e: e.peer == sub_elected.peer
        )
    return RecoveryTimes(
        crash_time=t0,
        sub_elect_ms=(sub_elected.time - t0) if sub_elected else None,
        join_fedavg_ms=(joined.time - t0) if joined else None,
        fed_elect_ms=(fed_elected.time - t0) if fed_elected else None,
    )


@dataclass(frozen=True)
class ChaosRaftReport:
    """Invariant verdicts for one chaos-injected Raft deployment."""

    plan: str
    #: at most one leader elected per (layer, group, term) — Raft's
    #: election-safety property, checked over the full event history.
    election_safety_ok: bool
    #: every layer found a leader again after the faults subsided.
    restabilized: bool
    #: leadership changes observed while the schedule was live.
    elections_during_faults: int
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.election_safety_ok and self.restabilized


def check_election_safety(events: list[SystemEvent]) -> list[str]:
    """At most one leader per term, per Raft group (sub layers + fed)."""
    seen: dict[tuple, int] = {}
    violations: list[str] = []
    for event in events:
        if event.kind == "sub_leader":
            key = ("sub", event.group, event.term)
        elif event.kind == "fed_leader":
            key = ("fed", None, event.term)
        else:
            continue
        prior = seen.setdefault(key, event.peer)
        if prior != event.peer:
            layer, group, term = key
            violations.append(
                f"two leaders in {layer} group {group} term {term}:"
                f" peers {prior} and {event.peer}"
            )
    return violations


def chaos_raft_trial(seed: int, schedule, **system_kw) -> ChaosRaftReport:
    """Run a :class:`repro.chaos.FaultSchedule` against a stabilized
    two-layer Raft deployment and check its safety/liveness invariants.

    Safety: election safety must hold across the whole run (crashes,
    partitions, loss and stragglers included).  Liveness: once the
    schedule's last effect has passed and permanently-crashed peers are
    excluded, every subgroup with a quorum and the FedAvg layer must
    elect leaders again within 30 s.
    """
    timeout_base_ms = 50.0
    system = _default_system(seed, timeout_base_ms, **system_kw)
    system.stabilize()
    system.run_for(1_000.0)

    t0 = system.sim.now
    events_before = len(system.events)
    system.apply_schedule(schedule)
    system.run_for(schedule.end_ms() + timeout_base_ms)
    elections_during = sum(
        1 for e in system.events[events_before:]
        if e.kind in ("sub_leader", "fed_leader")
    )

    # Liveness: give the survivors time to re-elect.  Subgroups that
    # lost their quorum to permanent crashes are exempt — no minority
    # can (or should) elect a leader.
    deadline = system.sim.now + 30_000.0
    down = schedule.crashed_nodes()

    def _quorate(gi: int) -> bool:
        group = system.topology.groups[gi]
        return sum(1 for p in group if p not in down) > len(group) // 2

    def _recovered() -> bool:
        if system.fed_leader() is None:
            return False
        return all(
            system.subgroup_leader(gi) is not None
            for gi in range(system.topology.n_groups)
            if _quorate(gi)
        )

    restabilized = False
    while system.sim.now < deadline:
        if _recovered():
            restabilized = True
            break
        system.run_for(10.0)
    restabilized = restabilized or _recovered()

    violations = tuple(check_election_safety(system.events))
    return ChaosRaftReport(
        plan=schedule.describe(),
        election_safety_ok=not violations,
        restabilized=restabilized,
        elections_during_faults=elections_during,
        violations=violations,
    )


def run_trials(
    trial_fn: Callable[..., RecoveryTimes],
    n_trials: int,
    timeout_base_ms: float,
    **kw,
) -> list[RecoveryTimes]:
    """Repeat a recovery trial with seeds 0, 1, ... (paper: 1000 runs)."""
    return [
        trial_fn(seed=i, timeout_base_ms=timeout_base_ms, **kw)
        for i in range(n_trials)
    ]
