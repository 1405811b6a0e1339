"""Two-layer Raft recovery experiments — Figs. 10, 11, 12.

Paper setting (Sec. VI-B1): N = 25 peers in five subgroups of five, 15 ms
one-way delay, follower/candidate timeouts ~ U(T, 2T) for
T in {50, 100, 150, 200} ms, 1000 trials per setting, FedAvg-presence
check every 100 ms.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..twolayer_raft.scenarios import (
    fedavg_leader_recovery_trial,
    run_trials,
    subgroup_leader_recovery_trial,
)

#: The four U(T, 2T) ranges of Fig. 10's legend.
PAPER_TIMEOUT_BASES = (50.0, 100.0, 150.0, 200.0)

#: Means reported in the paper's text for comparison columns.
PAPER_FIG10_MEANS = {50.0: 214.30, 100.0: 401.04, 150.0: 580.74, 200.0: 749.07}
PAPER_FIG11_DELTAS = {50.0: 122.98, 100.0: 125.8, 150.0: 144.70, 200.0: 166.09}
PAPER_FIG12_DELTAS = {50.0: 95.07, 100.0: 114.65, 150.0: 130.30, 200.0: 158.53}


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


@dataclass(frozen=True)
class RecoveryStats:
    """Distribution summary for one timeout range."""

    timeout_base_ms: float
    mean_ms: float
    p50_ms: float
    p95_ms: float
    n_trials: int
    paper_mean_ms: float | None = None


def _stats(values: list[float], base: float, paper: float | None) -> RecoveryStats:
    arr = np.asarray(values, dtype=np.float64)
    return RecoveryStats(
        timeout_base_ms=base,
        mean_ms=float(arr.mean()),
        p50_ms=float(np.percentile(arr, 50)),
        p95_ms=float(np.percentile(arr, 95)),
        n_trials=arr.size,
        paper_mean_ms=paper,
    )


def run_fig10(
    trials: int | None = None,
    timeout_bases: tuple[float, ...] = PAPER_TIMEOUT_BASES,
) -> list[RecoveryStats]:
    """Fig. 10: time to detect a crashed subgroup leader and elect anew."""
    trials = trials if trials is not None else _env_int("REPRO_TRIALS", 25)
    out = []
    for base in timeout_bases:
        res = run_trials(
            subgroup_leader_recovery_trial, trials, timeout_base_ms=base
        )
        values = [r.sub_elect_ms for r in res if r.sub_elect_ms is not None]
        out.append(_stats(values, base, PAPER_FIG10_MEANS.get(base)))
    return out


def run_fig11(trials: int | None = None) -> list[RecoveryStats]:
    """Fig. 11: Fig. 10 plus joining the FedAvg group."""
    trials = trials if trials is not None else _env_int("REPRO_TRIALS", 25)
    out = []
    for base in PAPER_TIMEOUT_BASES:
        res = run_trials(
            subgroup_leader_recovery_trial, trials, timeout_base_ms=base
        )
        values = [r.join_fedavg_ms for r in res if r.join_fedavg_ms is not None]
        paper = None
        if base in PAPER_FIG10_MEANS:
            paper = PAPER_FIG10_MEANS[base] + PAPER_FIG11_DELTAS[base]
        out.append(_stats(values, base, paper))
    return out


def run_fig12(trials: int | None = None) -> list[RecoveryStats]:
    """Fig. 12: full recovery from a crashed FedAvg leader."""
    trials = trials if trials is not None else _env_int("REPRO_TRIALS", 25)
    out = []
    for base in PAPER_TIMEOUT_BASES:
        res = run_trials(
            fedavg_leader_recovery_trial, trials, timeout_base_ms=base
        )
        values = [
            r.full_recovery_ms for r in res if r.full_recovery_ms is not None
        ]
        paper = None
        if base in PAPER_FIG10_MEANS:
            paper = (
                PAPER_FIG10_MEANS[base]
                + PAPER_FIG11_DELTAS[base]
                + PAPER_FIG12_DELTAS[base]
            )
        out.append(_stats(values, base, paper))
    return out


def format_recovery_table(stats: list[RecoveryStats], title: str) -> str:
    lines = [
        title,
        f"  {'U(T,2T)':<12}{'mean ms':>9}{'p50':>9}{'p95':>9}"
        f"{'paper':>9}{'trials':>8}",
    ]
    for s in stats:
        paper = f"{s.paper_mean_ms:.0f}" if s.paper_mean_ms is not None else "-"
        lines.append(
            f"  {f'{s.timeout_base_ms:.0f}-{2 * s.timeout_base_ms:.0f}ms':<12}"
            f"{s.mean_ms:>9.1f}{s.p50_ms:>9.1f}{s.p95_ms:>9.1f}"
            f"{paper:>9}{s.n_trials:>8}"
        )
    return "\n".join(lines)
