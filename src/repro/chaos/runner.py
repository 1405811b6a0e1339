"""Seeded chaos campaigns: N plans x {SAC, two-layer, Raft} -> matrix.

``python -m repro chaos --plans 25`` drives :func:`run_chaos_matrix`:
for each plan index a fault schedule is sampled per layer (each layer
has its own node ids, protected leaders and crash budget), the layer's
round/deployment runs under it, and the invariants grade the result:

- **pass** — the round completed; for SAC/two-layer the aggregate is
  bit-identical to the fault-free reference (computed without a
  simulator, and only for rounds that completed: every trial pays for
  one simulation).
- **degrade** — the round did not complete but failed *typed* (an
  explained :class:`~repro.simnet.RoundOutcome`, or a Raft deployment
  that kept election safety but had not restabilized in time).
- **fail** — an invariant broke: wrong aggregate, a degraded round
  exposing output, or a Raft election-safety violation.  The CLI exits
  non-zero iff any trial fails.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from ..core.topology import Topology
from ..core.wire_round import (
    run_two_layer_wire_round,
    two_layer_reference_average,
)
from ..obs import runtime as _obs
from ..secure.protocol import run_sac_protocol, sac_reference_average
from ..twolayer_raft.scenarios import chaos_raft_trial
from .invariants import check_liveness, check_safety
from .plan import PROFILES, ChaosPlan, ChaosProfile

LAYERS = ("sac", "two_layer", "raft")

#: chaos trials keep the retransmit budget small enough that exhaustion
#: is detected (and typed) well before the round timeout.
TRIAL_TRANSPORT_OPTS = {"max_attempts": 6}
#: parameters per model in the SAC and two-layer trials.
TRIAL_MODEL_PARAMS = 32


@dataclass(frozen=True)
class TrialReport:
    """One (layer, plan) cell of the chaos matrix."""

    layer: str
    profile: str
    seed: int
    plan: str
    status: str  # 'pass' | 'degrade' | 'fail'
    detail: str
    #: simulator heap telemetry of the chaos run (layers that surface it).
    heap: dict | None = None

    @property
    def failed(self) -> bool:
        return self.status == "fail"


def _grade(result, reference) -> tuple[str, str]:
    """Grade a round; ``reference()`` is evaluated only if it completed."""
    safety = check_safety(
        result, reference() if result.outcome.ok else None
    )
    if not safety.ok:
        obs = _obs.OBS
        if obs.enabled:
            # The flight recorder triggers on this: a safety violation
            # is the one outcome that must never happen, so the events
            # leading up to it are dumped for the post-mortem.
            obs.emit(
                "chaos.safety_violation", t_ms=None,
                outcome=result.outcome.status, detail=safety.detail,
            )
        return "fail", f"SAFETY: {safety.detail}"
    if result.outcome.ok:
        return "pass", safety.detail
    liveness = check_liveness(result)
    return "degrade", liveness.detail


def run_sac_trial(
    seed: int,
    profile: ChaosProfile | str,
    transport: str = "reliable",
) -> TrialReport:
    """One standalone 5-of-8 FT-SAC round under a sampled fault schedule."""
    n, k = 8, 5
    rng = np.random.default_rng([seed, 0xC4A05])
    plan = ChaosPlan.sample(
        rng, profile, nodes=range(n), protected=(0,), max_crashes=n - k
    )
    models = [
        np.random.default_rng([seed, i]).normal(size=TRIAL_MODEL_PARAMS)
        for i in range(n)
    ]
    result = run_sac_protocol(
        models, k=k, seed=seed, schedule=plan.schedule,
        transport=transport,
        transport_opts=dict(TRIAL_TRANSPORT_OPTS)
        if transport == "reliable" else None,
        round_timeout_ms=5_000.0,
    )
    status, detail = _grade(
        result, lambda: sac_reference_average(models, seed=seed)
    )
    return TrialReport(
        layer="sac", profile=plan.profile, seed=seed,
        plan=plan.schedule.describe(), status=status, detail=detail,
    )


def run_two_layer_trial(
    seed: int,
    profile: ChaosProfile | str,
    transport: str = "reliable",
) -> TrialReport:
    """One two-layer wire round (12 peers in groups of 4, k = 3) under a
    sampled fault schedule."""
    n_peers, k = 12, 3
    topology = Topology.by_group_size(n_peers, 4)
    rng = np.random.default_rng([seed, 0xC4A15])
    max_crashes = max(0, min(len(g) for g in topology.groups) - k)
    plan = ChaosPlan.sample(
        rng, profile, nodes=range(n_peers),
        protected=topology.leaders, max_crashes=max_crashes,
    )
    models = [
        np.random.default_rng([seed, i]).normal(size=TRIAL_MODEL_PARAMS)
        for i in range(n_peers)
    ]
    result = run_two_layer_wire_round(
        topology, models, k=k, seed=seed, schedule=plan.schedule,
        transport=transport,
        transport_opts=dict(TRIAL_TRANSPORT_OPTS)
        if transport == "reliable" else None,
        round_timeout_ms=8_000.0,
    )
    status, detail = _grade(
        result,
        lambda: two_layer_reference_average(topology, models, seed=seed),
    )
    return TrialReport(
        layer="two_layer", profile=plan.profile, seed=seed,
        plan=plan.schedule.describe(), status=status, detail=detail,
        heap=dict(result.heap_stats) or None,
    )


def run_raft_trial(seed: int, profile: ChaosProfile | str) -> TrialReport:
    """One two-layer Raft deployment (9 peers, 3 subgroups) under a
    sampled fault schedule.

    Raft carries its own retransmission (heartbeats re-ship entries), so
    the deployment always runs fire-and-forget; faults are stretched to
    Raft's election timescale.  Crashes are capped below every
    subgroup's quorum so liveness is expected, not just safety.
    """
    n_peers = 9
    topology = Topology.by_group_count(n_peers, 3)
    rng = np.random.default_rng([seed, 0xC4A25])
    max_crashes = max(
        0, min((len(g) - 1) // 2 for g in topology.groups)
    )
    if isinstance(profile, str):
        profile = PROFILES[profile]
    profile = replace(profile, horizon_ms=1_200.0)
    plan = ChaosPlan.sample(
        rng, profile, nodes=range(n_peers), max_crashes=max_crashes
    )
    report = chaos_raft_trial(seed=seed, schedule=plan.schedule, topology=topology)
    if not report.election_safety_ok:
        status, detail = "fail", "SAFETY: " + "; ".join(report.violations)
    elif report.restabilized:
        status = "pass"
        detail = (
            f"election safety held; restabilized"
            f" ({report.elections_during_faults} elections under faults)"
        )
    else:
        status, detail = "degrade", "election safety held; not restabilized"
    return TrialReport(
        layer="raft", profile=plan.profile, seed=seed,
        plan=plan.schedule.describe(), status=status, detail=detail,
    )


_TRIAL_FNS = {
    "sac": run_sac_trial,
    "two_layer": run_two_layer_trial,
    "raft": run_raft_trial,
}


def run_chaos_matrix(
    n_plans: int = 25,
    seed0: int = 0,
    profiles: Optional[Sequence[str]] = None,
    layers: Sequence[str] = LAYERS,
    transport: str = "reliable",
) -> list[TrialReport]:
    """Run ``n_plans`` seeded plans against every requested layer."""
    profiles = list(profiles or PROFILES)
    unknown = [p for p in profiles if p not in PROFILES]
    if unknown:
        raise ValueError(f"unknown profiles {unknown}; known: {sorted(PROFILES)}")
    bad = [l for l in layers if l not in _TRIAL_FNS]
    if bad:
        raise ValueError(f"unknown layers {bad}; known: {LAYERS}")
    reports: list[TrialReport] = []
    for i in range(n_plans):
        profile = profiles[i % len(profiles)]
        seed = seed0 + i
        for layer in layers:
            if layer == "raft":
                reports.append(run_raft_trial(seed, profile))
            else:
                reports.append(
                    _TRIAL_FNS[layer](seed, profile, transport=transport)
                )
    return reports


def format_matrix(reports: Sequence[TrialReport]) -> str:
    """Render the per-layer/per-profile pass/degrade/fail matrix."""
    cells: dict[tuple[str, str], dict[str, int]] = {}
    layers: list[str] = []
    profiles: list[str] = []
    for r in reports:
        if r.layer not in layers:
            layers.append(r.layer)
        if r.profile not in profiles:
            profiles.append(r.profile)
        counts = cells.setdefault((r.layer, r.profile), {})
        counts[r.status] = counts.get(r.status, 0) + 1
    width = max([len(p) for p in profiles] + [7])
    lines = []
    header = "profile".ljust(width) + "".join(
        f"  {layer:>22}" for layer in layers
    )
    lines.append(header)
    lines.append("-" * len(header))
    for profile in profiles:
        row = profile.ljust(width)
        for layer in layers:
            counts = cells.get((layer, profile), {})
            cell = "/".join(
                str(counts.get(s, 0)) for s in ("pass", "degrade", "fail")
            )
            row += f"  {cell:>22}"
        lines.append(row)
    lines.append("-" * len(header))
    totals = {
        s: sum(1 for r in reports if r.status == s)
        for s in ("pass", "degrade", "fail")
    }
    lines.append(
        f"totals: {totals['pass']} pass / {totals['degrade']} degrade"
        f" / {totals['fail']} fail   (cells are pass/degrade/fail)"
    )
    failures = [r for r in reports if r.failed]
    for r in failures:
        lines.append(
            f"FAIL [{r.layer}/{r.profile} seed={r.seed}] {r.plan}: {r.detail}"
        )
    return "\n".join(lines)
