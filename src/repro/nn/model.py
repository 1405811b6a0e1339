"""Sequential model container."""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..obs import runtime as _obs
from .layers import Layer, Param, Softmax
from .loss import CategoricalCrossEntropy

#: Rows per forward pass in :meth:`Sequential.evaluate` (bounds memory).
EVAL_BATCH = 256


class Sequential:
    """A stack of layers trained with categorical cross-entropy.

    When the final layer is :class:`Softmax`, the backward pass starts from
    the fused logits-space gradient ``(p - y)/n`` and skips the Softmax
    layer's backward — the standard numerically stable formulation.
    """

    def __init__(self, layers: Sequence[Layer]) -> None:
        self.layers = list(layers)
        self.loss = CategoricalCrossEntropy()

    # ------------------------------------------------------------- structure
    def params(self) -> list[Param]:
        out: list[Param] = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    @property
    def n_params(self) -> int:
        return sum(p.size for p in self.params())

    def summary(self) -> str:
        """Keras-style layer table (used by the quickstart example)."""
        lines = [f"{'layer':<12}{'params':>12}"]
        for layer in self.layers:
            count = sum(p.size for p in layer.params())
            lines.append(f"{layer.name:<12}{count:>12,}")
        lines.append(f"{'total':<12}{self.n_params:>12,}")
        return "\n".join(lines)

    # -------------------------------------------------------------- compute
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if _obs.OBS.enabled:
            return self._forward_timed(x, training)
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def _forward_timed(self, x: np.ndarray, training: bool) -> np.ndarray:
        hist = _obs.OBS.metrics.histogram(
            "nn_layer_forward_ms",
            "Wall-clock per-layer forward pass time.", labels=("layer",),
        )
        for i, layer in enumerate(self.layers):
            t0 = time.perf_counter()
            x = layer.forward(x, training=training)
            hist.labels(layer=f"{i}:{layer.name}").observe(
                (time.perf_counter() - t0) * 1e3
            )
        return x

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities (inference mode)."""
        return self.forward(x, training=False)

    def predict_labels(self, x: np.ndarray) -> np.ndarray:
        return self.predict(x).argmax(axis=1)

    def train_batch(self, x: np.ndarray, labels: np.ndarray) -> float:
        """Forward + backward on one minibatch; returns the batch loss.

        Gradients are left in the parameters' ``.grad`` buffers; the caller
        invokes the optimizer step.
        """
        out = self.forward(x, training=True)
        loss_value = self.loss.value(out, labels)
        if isinstance(self.layers[-1], Softmax):
            grad = self.loss.fused_gradient(out, labels)
            layers = self.layers[:-1]
        else:
            grad = self.loss.gradient(out, labels)
            layers = self.layers
        if _obs.OBS.enabled:
            hist = _obs.OBS.metrics.histogram(
                "nn_layer_backward_ms",
                "Wall-clock per-layer backward pass time.", labels=("layer",),
            )
            for i, layer in zip(
                reversed(range(len(layers))), reversed(layers)
            ):
                t0 = time.perf_counter()
                grad = layer.backward(grad)
                hist.labels(layer=f"{i}:{layer.name}").observe(
                    (time.perf_counter() - t0) * 1e3
                )
        else:
            for layer in reversed(layers):
                grad = layer.backward(grad)
        return loss_value

    def evaluate(self, x: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
        """(loss, accuracy) over a dataset, batched to bound memory."""
        n = x.shape[0]
        if n == 0:
            raise ValueError("cannot evaluate on an empty dataset")
        total_loss = 0.0
        correct = 0
        for start in range(0, n, EVAL_BATCH):
            xb = x[start : start + EVAL_BATCH]
            yb = labels[start : start + EVAL_BATCH]
            out = self.forward(xb, training=False)
            total_loss += self.loss.value(out, yb) * xb.shape[0]
            correct += int((out.argmax(axis=1) == yb).sum())
        return total_loss / n, correct / n
