"""Round-by-round training metrics (the paper plots moving averages)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def moving_average(values: np.ndarray | list[float], window: int) -> np.ndarray:
    """Trailing moving average with a warm-up (shorter prefix windows).

    Matches the "moving average of test accuracy" presentation in
    Figs. 6-9: element ``i`` averages ``values[max(0, i-window+1) : i+1]``.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError("values must be 1-D")
    if v.size == 0:
        return v.copy()
    csum = np.concatenate([[0.0], np.cumsum(v)])
    idx = np.arange(1, v.size + 1)
    lo = np.maximum(0, idx - window)
    return (csum[idx] - csum[lo]) / (idx - lo)


@dataclass(frozen=True)
class RoundMetrics:
    """Metrics of one communication round."""

    round: int
    test_accuracy: float
    test_loss: float
    train_loss: float
    comm_bits: float = 0.0


@dataclass
class MetricsHistory:
    """Accumulates per-round metrics; exposes arrays for analysis/plots."""

    rounds: list[RoundMetrics] = field(default_factory=list, init=False)

    def append(self, metrics: RoundMetrics) -> None:
        self.rounds.append(metrics)

    def __len__(self) -> int:
        return len(self.rounds)

    @property
    def accuracy(self) -> np.ndarray:
        return np.array([r.test_accuracy for r in self.rounds])

    @property
    def test_loss(self) -> np.ndarray:
        return np.array([r.test_loss for r in self.rounds])

    @property
    def train_loss(self) -> np.ndarray:
        return np.array([r.train_loss for r in self.rounds])

    @property
    def comm_bits(self) -> np.ndarray:
        return np.array([r.comm_bits for r in self.rounds])

    def accuracy_ma(self) -> np.ndarray:
        """The Fig. 6 curve: accuracy over a 10-round moving window."""
        return moving_average(self.accuracy, 10)

    def train_loss_ma(self, window: int = 10) -> np.ndarray:
        return moving_average(self.train_loss, window)

    def final_accuracy(self, tail: int = 10) -> float:
        """Mean accuracy over the last ``tail`` rounds (headline numbers)."""
        if not self.rounds:
            raise ValueError("no rounds recorded")
        return float(self.accuracy[-tail:].mean())
