"""Two-layer Raft recovery experiments — Figs. 10, 11, 12.

The paper's setting (Sec. VI-B1) and mean times are the manifest's
``ARTEFACTS["Fig. 10"]`` to ``["Fig. 12"]``: N = 25 peers in five
subgroups of five, 15 ms one-way delay, follower/candidate timeouts
~ U(T, 2T) over four ranges of T.
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
from .paper_settings import ARTEFACTS

#: The U(T, 2T) ranges of Fig. 10's legend.
TIMEOUT_BASES = ARTEFACTS["Fig. 10"].setting["timeout_bases_ms"]


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


def _key(base: float) -> str:
    return f"T={base:g}"


def mean_by_range(stats: list[RecoveryStats]) -> dict[str, float]:
    """Each range's mean, named as the manifest names the paper's."""
    return {_key(s.timeout_base_ms): s.mean_ms for s in stats}


def _run(trial, attr: str, figure: str, trials: int | None,
         timeout_bases: tuple[float, ...]) -> list[RecoveryStats]:
    trials = trials if trials is not None else _env_int("REPRO_TRIALS", 25)
    paper = ARTEFACTS[figure].paper
    out = []
    for base in timeout_bases:
        res = run_trials(trial, trials, timeout_base_ms=base)
        values = [getattr(r, attr) for r in res if getattr(r, attr) is not None]
        out.append(_stats(values, base, paper.get(_key(base))))
    return out


def run_fig10(
    trials: int | None = None,
    timeout_bases: tuple[float, ...] = TIMEOUT_BASES,
) -> list[RecoveryStats]:
    """Fig. 10: time to detect a crashed subgroup leader and elect anew."""
    return _run(subgroup_leader_recovery_trial, "sub_elect_ms", "Fig. 10",
                trials, timeout_bases)


def run_fig11(trials: int | None = None) -> list[RecoveryStats]:
    """Fig. 11: Fig. 10 plus joining the FedAvg group."""
    return _run(subgroup_leader_recovery_trial, "join_fedavg_ms", "Fig. 11",
                trials, TIMEOUT_BASES)


def run_fig12(trials: int | None = None) -> list[RecoveryStats]:
    """Fig. 12: full recovery from a crashed FedAvg leader."""
    return _run(fedavg_leader_recovery_trial, "full_recovery_ms", "Fig. 12",
                trials, TIMEOUT_BASES)


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
