"""Loss functions: categorical cross-entropy (paper Sec. VI-A1)."""

from __future__ import annotations

import numpy as np

_EPS = 1e-12


class CategoricalCrossEntropy:
    """Cross-entropy on probability inputs (i.e. after a Softmax layer)."""

    def value(self, probs: np.ndarray, labels: np.ndarray) -> float:
        """Mean negative log-likelihood; ``labels`` are integer class ids."""
        p = probs[np.arange(labels.shape[0]), labels]
        return float(-np.mean(np.log(np.maximum(p, _EPS))))

    def gradient(self, probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """d(loss)/d(probs)."""
        n = labels.shape[0]
        grad = np.zeros_like(probs)
        idx = np.arange(n)
        grad[idx, labels] = -1.0 / (np.maximum(probs[idx, labels], _EPS) * n)
        return grad

    def fused_gradient(self, probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Gradient w.r.t. the *pre-softmax logits*: ``(p - y) / n``.

        Used by :class:`~repro.nn.model.Sequential` when the last layer is
        Softmax, skipping the ill-conditioned probs-space gradient.
        """
        n = labels.shape[0]
        grad = probs.copy()
        grad[np.arange(n), labels] -= 1.0
        grad /= n
        return grad


class SoftmaxCrossEntropy:
    """Fused softmax + cross-entropy on raw logits."""

    def value(self, logits: np.ndarray, labels: np.ndarray) -> float:
        shifted = logits - logits.max(axis=1, keepdims=True)
        logsumexp = np.log(np.exp(shifted).sum(axis=1))
        picked = shifted[np.arange(labels.shape[0]), labels]
        return float(np.mean(logsumexp - picked))

    def gradient(self, logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
        shifted = logits - logits.max(axis=1, keepdims=True)
        np.exp(shifted, out=shifted)
        shifted /= shifted.sum(axis=1, keepdims=True)
        n = labels.shape[0]
        shifted[np.arange(n), labels] -= 1.0
        shifted /= n
        return shifted
