"""CSV export of experiment series (for external plotting)."""

from __future__ import annotations

import csv
import os
from .cost_experiments import CostPoint
from .fl_experiments import FlRun
from .raft_experiments import RecoveryStats


def _open(path: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return open(path, "w", newline="")


def write_fl_runs(runs: list[FlRun], path: str) -> str:
    """Per-round accuracy/loss curves, one row per (run, round)."""
    with _open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["label", "distribution", "round", "accuracy", "accuracy_ma",
             "test_loss", "train_loss", "train_loss_ma", "comm_bits"]
        )
        for run in runs:
            hist = run.history
            acc_ma = hist.accuracy_ma()
            loss_ma = hist.train_loss_ma()
            for i, metrics in enumerate(hist.rounds):
                writer.writerow(
                    [run.label, run.distribution, metrics.round,
                     f"{metrics.test_accuracy:.6f}", f"{acc_ma[i]:.6f}",
                     f"{metrics.test_loss:.6f}", f"{metrics.train_loss:.6f}",
                     f"{loss_ma[i]:.6f}", f"{metrics.comm_bits:.0f}"]
                )
    return path


def write_recovery_stats(stats: list[RecoveryStats], path: str) -> str:
    with _open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["timeout_base_ms", "mean_ms", "p50_ms", "p95_ms",
             "paper_mean_ms", "n_trials"]
        )
        for s in stats:
            writer.writerow(
                [s.timeout_base_ms, f"{s.mean_ms:.3f}", f"{s.p50_ms:.3f}",
                 f"{s.p95_ms:.3f}",
                 "" if s.paper_mean_ms is None else f"{s.paper_mean_ms:.3f}",
                 s.n_trials]
            )
    return path


def write_cost_points(
    series: dict[str, list[CostPoint]] | list[CostPoint], path: str
) -> str:
    if isinstance(series, list):
        series = {"": series}
    with _open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["series", "x", "gigabits"])
        for label, points in series.items():
            for p in points:
                writer.writerow([label or p.label, p.x, f"{p.gigabits:.6f}"])
    return path
