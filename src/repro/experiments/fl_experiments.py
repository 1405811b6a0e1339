"""FL accuracy/loss experiments — Figs. 6, 7, 8, 9.

The paper trains the Fig. 5 CNN on CIFAR-10 for 1000 rounds.  The
default reproduction workload is the synthetic-blobs MLP (identical
training and aggregation code path, minutes instead of days); set
``dataset="cifar"`` for the synthetic-CIFAR CNN workload.

Key shapes these runs reproduce:

- two-layer SAC (any n) tracks the one-layer SAC baseline exactly
  (Fig. 6/7 — the curves coincide);
- IID > non-IID(5%) > non-IID(0%) in accuracy (Figs. 6, 8);
- fraction p = 0.5 lands within a few points of p = 1 (Fig. 8/9).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..core.session import SessionConfig, run_session
from ..data.partition import DISTRIBUTIONS
from ..data.synthetic import synthetic_blobs, synthetic_cifar10
from ..fl.metrics import MetricsHistory
from ..nn.model import Sequential
from ..nn.zoo import mlp_classifier, small_cnn


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


@dataclass(frozen=True)
class FlRun:
    """One accuracy/loss curve of Figs. 6-9."""

    label: str
    distribution: str
    history: MetricsHistory

    @property
    def final_accuracy(self) -> float:
        return self.history.final_accuracy(tail=max(1, len(self.history) // 10))


def _workload(dataset: str, seed: int):
    """(dataset, model_factory, lr) for the chosen workload."""
    rng = np.random.default_rng(seed)
    if dataset == "blobs":
        # separation/noise tuned so the task does not saturate: the
        # IID > non-IID(5%) > non-IID(0%) ordering of Fig. 6 stays visible.
        ds = synthetic_blobs(
            n_train=2000, n_test=400, n_features=32, rng=rng,
            separation=1.2, noise=1.5,
        )

        def factory(r: np.random.Generator) -> Sequential:
            return mlp_classifier(32, rng=r, hidden=(32,))

        return ds, factory, 1e-2
    if dataset == "cifar":
        ds = synthetic_cifar10(n_train=1500, n_test=300, rng=rng)

        def factory(r: np.random.Generator) -> Sequential:
            return small_cnn(r, in_channels=3, in_hw=32, n_classes=10)

        return ds, factory, 1e-3
    raise ValueError(f"unknown dataset {dataset!r}; expected 'blobs' or 'cifar'")


def run_fig6_fig7(
    n_peers: int | None = None,
    rounds: int | None = None,
    group_sizes: tuple[int, ...] = (3, 5),
    distributions: tuple[str, ...] = DISTRIBUTIONS,
    dataset: str = "blobs",
    seed: int = 0,
) -> list[FlRun]:
    """Figs. 6-7: two-layer SAC (n = 3, 5) vs. one-layer SAC (n = N).

    Returns one run per (subgroup size | baseline) x distribution; the
    figure plots ``history.accuracy_ma()`` (Fig. 6) and
    ``history.train_loss_ma()`` (Fig. 7).
    """
    n_peers = n_peers if n_peers is not None else _env_int("REPRO_PEERS", 10)
    rounds = rounds if rounds is not None else _env_int("REPRO_ROUNDS", 40)
    ds, factory, lr = _workload(dataset, seed)
    runs: list[FlRun] = []
    sizes = [n for n in group_sizes if n <= n_peers]  # skip infeasible n
    for dist in distributions:
        for n in sizes:
            cfg = SessionConfig(
                n_peers=n_peers, rounds=rounds, aggregator="two-layer",
                group_size=n, distribution=dist, lr=lr, seed=seed,
            )
            runs.append(FlRun(f"two-layer n={n}", dist, run_session(factory, ds, cfg)))
        baseline = SessionConfig(
            n_peers=n_peers, rounds=rounds, aggregator="one-layer-sac",
            distribution=dist, lr=lr, seed=seed,
        )
        runs.append(FlRun("baseline n=N", dist, run_session(factory, ds, baseline)))
    return runs


def run_fig8_fig9(
    n_peers: int | None = None,
    rounds: int | None = None,
    group_size: int = 5,
    distributions: tuple[str, ...] = DISTRIBUTIONS,
    dataset: str = "blobs",
    seed: int = 0,
) -> list[FlRun]:
    """Figs. 8-9: fraction p of subgroups reaching the FedAvg leader.

    Paper setting: N = 20, n = 5 (four subgroups), p in {0.5, 1}.
    """
    n_peers = n_peers if n_peers is not None else _env_int("REPRO_PEERS", 20)
    rounds = rounds if rounds is not None else _env_int("REPRO_ROUNDS", 40)
    ds, factory, lr = _workload(dataset, seed)
    group_size = min(group_size, n_peers)
    runs: list[FlRun] = []
    for dist in distributions:
        for p in (0.5, 1.0):
            cfg = SessionConfig(
                n_peers=n_peers, rounds=rounds, aggregator="two-layer",
                group_size=group_size, fraction=p, distribution=dist,
                lr=lr, seed=seed,
            )
            runs.append(FlRun(f"p={p}", dist, run_session(factory, ds, cfg)))
    return runs


def format_accuracy_table(runs: list[FlRun], title: str) -> str:
    """Final-accuracy summary shaped like the Figs. 6/8 headline numbers."""
    lines = [title, f"  {'setting':<18}{'distribution':<12}{'final acc':>10}{'final loss':>12}"]
    for run in runs:
        lines.append(
            f"  {run.label:<18}{run.distribution:<12}"
            f"{run.final_accuracy:>9.2%}{run.history.train_loss[-1]:>12.4f}"
        )
    return "\n".join(lines)
