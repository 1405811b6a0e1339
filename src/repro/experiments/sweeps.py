"""Grid sweeps over session configurations.

A small, general tool for the questions the paper's figures answer one
at a time: "what happens to accuracy/traffic as (n, k, p, distribution,
...) vary?"  Builds the cartesian product of the supplied axes, runs one
session per point, and returns tidy rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from ..core.session import SessionConfig, run_session
from ..data.synthetic import Dataset
from ..nn.model import Sequential


@dataclass(frozen=True)
class SweepPoint:
    """One grid point and its results."""

    params: dict
    final_accuracy: float
    final_train_loss: float
    total_comm_bits: float
    rounds: int


def sweep_sessions(
    model_factory: Callable[[np.random.Generator], Sequential],
    dataset: Dataset,
    base: SessionConfig,
    axes: Mapping[str, Iterable[Any]],
    tail: int = 5,
) -> list[SweepPoint]:
    """Run one session per point of the cartesian product of ``axes``.

    ``axes`` maps :class:`SessionConfig` field names to value lists, e.g.
    ``{"group_size": [3, 5], "distribution": ["iid", "noniid-0"]}``.
    Invalid combinations (e.g. ``threshold > group_size``) are skipped
    rather than raising, so coarse grids stay convenient.
    """
    names = list(axes)
    bad = [n for n in names if not hasattr(base, n)]
    if bad:
        raise ValueError(f"unknown SessionConfig fields: {bad}")
    points: list[SweepPoint] = []
    for values in itertools.product(*(axes[name] for name in names)):
        params = dict(zip(names, values))
        try:
            config = replace(base, **params)
        except ValueError:
            continue  # infeasible combination
        try:
            history = run_session(model_factory, dataset, config)
        except ValueError:
            continue
        points.append(
            SweepPoint(
                params=params,
                final_accuracy=history.final_accuracy(tail=tail),
                final_train_loss=float(history.train_loss[-1]),
                total_comm_bits=float(history.comm_bits.sum()),
                rounds=len(history),
            )
        )
    return points
