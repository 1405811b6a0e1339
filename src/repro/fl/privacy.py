"""Differential-privacy utilities (paper Sec. IV-D's suggested extension).

"Other techniques such as Differential Privacy could be used to add
noise to the weight of each peer."  This module implements exactly that:
per-peer weight clipping + Gaussian noise before the model enters SAC,
with the standard (epsilon, delta) calibration of the Gaussian mechanism
and a simple sequential-composition accountant across rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def clip_to_norm(w: np.ndarray, max_norm: float) -> np.ndarray:
    """A copy of ``w`` scaled down to L2 norm ``max_norm`` if it exceeds it."""
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    w = np.asarray(w, dtype=np.float64)
    norm = float(np.linalg.norm(w))
    out = w.copy()
    if norm > max_norm:
        out *= max_norm / norm
    return out


def gaussian_sigma(epsilon: float, delta: float, sensitivity: float) -> float:
    """Noise scale of the Gaussian mechanism:
    ``sigma = sensitivity * sqrt(2 ln(1.25/delta)) / epsilon``."""
    if epsilon <= 0 or not 0 < delta < 1 or sensitivity <= 0:
        raise ValueError("need epsilon > 0, delta in (0,1), sensitivity > 0")
    return sensitivity * math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


@dataclass
class PrivacyAccountant:
    """Sequential-composition (epsilon, delta) ledger."""

    epsilon_spent: float = field(default=0.0, init=False)
    delta_spent: float = field(default=0.0, init=False)
    steps: int = field(default=0, init=False)

    def spend(self, epsilon: float, delta: float) -> None:
        self.epsilon_spent += epsilon
        self.delta_spent += delta
        self.steps += 1


class GaussianMechanism:
    """Clip-and-noise a weight vector under (epsilon, delta)-DP per round.

    Sensitivity of one peer's (clipped) contribution to the subgroup
    average of ``n`` peers is ``2 * clip_norm / n``; noise can be applied
    either per peer pre-SAC (this class) or once post-aggregation.
    """

    def __init__(
        self,
        epsilon: float,
        delta: float,
        clip_norm: float,
        rng: np.random.Generator,
    ) -> None:
        self.epsilon = epsilon
        self.delta = delta
        self.clip_norm = clip_norm
        self.rng = rng
        self.sigma = gaussian_sigma(epsilon, delta, sensitivity=2.0 * clip_norm)
        self.accountant = PrivacyAccountant()

    def privatize(self, w: np.ndarray) -> np.ndarray:
        """Return a clipped + noised copy of ``w`` and charge the ledger."""
        out = clip_to_norm(w, self.clip_norm)
        out += self.rng.normal(0.0, self.sigma, size=out.shape)
        self.accountant.spend(self.epsilon, self.delta)
        return out
