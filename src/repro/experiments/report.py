"""One-shot evaluation report: every table/figure into a markdown file.

``python -m repro report --out report.md`` regenerates the whole
evaluation at the current scale settings, writes a self-contained
markdown document and prints one paper / measured / band line per row
of the manifest (:mod:`.paper_settings`) — the quickest way to compare
a code change against the paper.
"""

from __future__ import annotations

import os

import numpy as np

from ..analysis.fault_tolerance import optimistic_max_faults, tolerance_curve
from ..core.topology import Topology
from .cost_experiments import (
    eq10_measured,
    fig13_measured,
    fig14_measured,
    format_fig13,
    format_fig14,
    format_multilayer,
    run_fig13,
    run_fig14,
    run_multilayer_table,
)
from .envreport import format_table1
from .fl_experiments import (
    fig6_measured,
    fig8_measured,
    format_accuracy_table,
    run_fig6_fig7,
    run_fig8_fig9,
)
from .paper_settings import ARTEFACTS
from .raft_experiments import (
    format_recovery_table,
    mean_by_range,
    run_fig10,
    run_fig11,
    run_fig12,
)


def _block(text: str) -> str:
    return "```\n" + text + "\n```\n"


def closed_form_measured() -> dict[str, dict[str, float]]:
    """The rows measured by closed forms and a small tree: Fig. 13,
    Fig. 14 and Eq. 10 (well under a second)."""
    return {
        "Fig. 13": fig13_measured(run_fig13()),
        "Fig. 14": fig14_measured(run_fig14()),
        "Eq. 10": eq10_measured(),
    }


def _sec7d_measured() -> dict[str, float]:
    """Sec. VII-D: the most random crashes every Monte Carlo trial
    survives, and the optimistic bound's closed form."""
    setting = ARTEFACTS["Sec. VII-D"].setting
    n_peers, m = setting["n_peers"], setting["group_count"]
    curve = tolerance_curve(Topology.by_group_count(n_peers, m),
                            np.random.default_rng(0), trials_per_point=300)
    return {
        "guaranteed crashes": next(f for f, frac in curve if frac < 1.0) - 1,
        "optimistic crashes": optimistic_max_faults(m, n_peers // m),
    }


def format_paper_vs_measured(measured: dict[str, dict[str, float]]) -> str:
    """One line per manifest row: each value's paper / measured [band],
    or the claim where the paper gives no number."""
    lines = ["Paper against measured — name: paper / measured [band]"]
    for row in ARTEFACTS.values():
        got = measured.get(row.id, {})
        if not row.band:
            verdict = "-"
        else:
            verdict = "OUT" if row.misses(got) else "in band"
        values = "; ".join(
            f"{k}: {v:.5g} / "
            + (f"{got[k]:.5g}" if k in got else "-")
            + (" [{:.5g}, {:.5g}]".format(*row.band[k]) if k in row.band else "")
            for k, v in row.paper.items()
        )
        lines.append(f"  {row.id:<11}{verdict:<9}{values or row.claim}")
    return "\n".join(lines)


def generate_report(
    rounds: int | None = None,
    trials: int | None = None,
    peers: int | None = None,
    dataset: str = "blobs",
) -> tuple[str, str]:
    """The full report as markdown, and its paper-against-measured table."""
    runs67 = run_fig6_fig7(n_peers=peers, rounds=rounds, dataset=dataset)
    runs89 = run_fig8_fig9(rounds=rounds, dataset=dataset)
    s10 = run_fig10(trials=trials)
    s11 = run_fig11(trials=trials)
    s12 = run_fig12(trials=trials)
    table = format_paper_vs_measured({
        "Fig. 6": fig6_measured(runs67),
        "Fig. 8": fig8_measured(runs89),
        "Fig. 10": mean_by_range(s10),
        "Fig. 11": mean_by_range(s11),
        "Fig. 12": mean_by_range(s12),
        **closed_form_measured(),
        "Sec. VII-D": _sec7d_measured(),
    })
    sections: list[str] = [
        "# repro — evaluation report",
        "",
        "Regenerated tables for every artifact of *A Scalable Secure Fault "
        "Tolerant Aggregation for P2P Federated Learning* (IPDPS-W 2024). "
        "See EXPERIMENTS.md for the paper-vs-measured discussion.",
        "",
        "## Paper against measured",
        _block(table),
        "## Table I — environment",
        _block(format_table1()),
        "## Figs. 6-7 — two-layer SAC vs one-layer SAC",
        _block(format_accuracy_table(runs67, "final accuracy / loss")),
        "## Figs. 8-9 — fraction p of subgroups",
        _block(format_accuracy_table(runs89, "final accuracy / loss")),
        "## Fig. 10 — subgroup leader re-election",
        _block(format_recovery_table(s10, "")),
        "## Fig. 11 — re-election + FedAvg join",
        _block(format_recovery_table(s11, "")),
        "## Fig. 12 — FedAvg leader crash, full recovery",
        _block(format_recovery_table(s12, "")),
        "## Fig. 13 — cost vs m (N=30)",
        _block(format_fig13(run_fig13())),
        "## Fig. 14 — cost under k-n settings",
        _block(format_fig14(run_fig14())),
        "## Sec. VII-C — X-layer costs",
        _block(format_multilayer(run_multilayer_table())),
    ]
    return "\n".join(sections), table


def write_report(path: str, **kw) -> str:
    """Write the markdown report to ``path``; return its
    paper-against-measured table."""
    text, table = generate_report(**kw)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)
    return table
