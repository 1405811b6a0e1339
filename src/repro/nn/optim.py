"""Optimizers.

The paper trains with Adam at lr = 1e-4 (Sec. VI-A1).  All updates are
performed in place on the parameter buffers so aggregation code that holds
views of them observes the new values without copies.
"""

from __future__ import annotations

import numpy as np

from .layers import Param


class Optimizer:
    """Base class; subclasses implement :meth:`step`."""

    def __init__(self, params: list[Param]) -> None:
        self.params = list(params)

    def step(self) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad[...] = 0.0


class Adam(Optimizer):
    """Adam (Kingma & Ba 2015) with bias correction."""

    def __init__(
        self,
        params: list[Param],
        lr: float = 1e-4,
    ) -> None:
        super().__init__(params)
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self.beta1 = 0.9
        self.beta2 = 0.999
        self.eps = 1e-8
        self.t = 0
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]
        # Two reusable scratch buffers per parameter: step() then allocates
        # nothing, which matters when it runs every mini-batch on every
        # simulated peer.
        self._s1 = [np.empty_like(p.value) for p in self.params]
        self._s2 = [np.empty_like(p.value) for p in self.params]

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for p, m, v, u, u2 in zip(
            self.params, self._m, self._v, self._s1, self._s2
        ):
            # Same elementwise operation sequence as the textbook
            # m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g^2 form, so the
            # trajectory is bit-identical to the allocating version.
            m *= b1
            np.multiply(p.grad, 1.0 - b1, out=u)
            m += u
            v *= b2
            np.multiply(p.grad, p.grad, out=u)
            u *= 1.0 - b2
            v += u
            # p -= lr * m_hat / (sqrt(v_hat) + eps)
            np.divide(m, bias1, out=u)
            np.divide(v, bias2, out=u2)
            np.sqrt(u2, out=u2)
            u2 += self.eps
            u /= u2
            u *= self.lr
            p.value -= u

    def reset_state(self) -> None:
        """Clear moments (e.g. when the model is overwritten by FedAvg)."""
        self.t = 0
        for m, v in zip(self._m, self._v):
            m[...] = 0.0
            v[...] = 0.0
