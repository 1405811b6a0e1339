"""Layers: Dense, Conv2D (im2col), MaxPool2D, Dropout, Flatten, ReLU, Softmax.

Conventions
-----------
- Image tensors are NCHW ``(batch, channels, height, width)``.
- ``forward(x, training)`` caches whatever ``backward`` needs.
- ``backward(grad)`` returns the gradient w.r.t. the layer input and
  fills each parameter's ``.grad`` (accumulated per batch, overwritten on
  the next backward pass).
- Parameters are :class:`Param` objects so optimizers can iterate them
  uniformly.
"""

from __future__ import annotations

import numpy as np

from .initializers import glorot_uniform, zeros


class Param:
    """A trainable tensor with its gradient buffer."""

    __slots__ = ("value", "grad", "name")

    def __init__(self, value: np.ndarray, name: str = "") -> None:
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.name = name

    @property
    def size(self) -> int:
        return self.value.size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Param({self.name}, shape={self.value.shape})"


class Layer:
    """Base layer."""

    def params(self) -> list[Param]:
        """Trainable parameters, in a stable order."""
        return []

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def name(self) -> str:
        return type(self).__name__


class Dense(Layer):
    """Fully connected layer: ``y = x @ W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
    ) -> None:
        self.in_features = in_features
        self.out_features = out_features
        self.W = Param(glorot_uniform((in_features, out_features), rng), "W")
        self.b = Param(zeros((out_features,)), "b")
        self._x: np.ndarray | None = None

    def params(self) -> list[Param]:
        return [self.W, self.b]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Dense expects (batch, {self.in_features}), got {x.shape}"
            )
        self._x = x
        return x @ self.W.value + self.b.value

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._x is not None, "backward before forward"
        np.matmul(self._x.T, grad, out=self.W.grad)
        np.sum(grad, axis=0, out=self.b.grad)
        return grad @ self.W.value.T


class Conv2D(Layer):
    """2-D stride-1 convolution (cross-correlation) via im2col + GEMM.

    Supports ``padding='valid'`` or ``'same'`` (which preserves the
    spatial size for odd kernels).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        padding: str = "valid",
    ) -> None:
        if padding not in ("valid", "same"):
            raise ValueError(f"padding must be 'valid' or 'same', got {padding!r}")
        if kernel_size < 1:
            raise ValueError("kernel_size must be >= 1")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.padding = padding
        self.W = Param(
            glorot_uniform((out_channels, in_channels, kernel_size, kernel_size), rng),
            "W",
        )
        self.b = Param(zeros((out_channels,)), "b")
        self._cache: tuple | None = None
        # im2col gather indices depend only on the input's (H, W); training
        # re-feeds the same shape every step, so memoise per shape.
        self._idx_cache: dict[tuple[int, int], tuple] = {}

    def params(self) -> list[Param]:
        return [self.W, self.b]

    def _pad_amount(self) -> int:
        if self.padding == "valid":
            return 0
        if self.kernel_size % 2 == 0:
            raise ValueError("'same' padding requires an odd kernel size")
        return (self.kernel_size - 1) // 2

    def _col_indices(
        self, h: int, w: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
        cached = self._idx_cache.get((h, w))
        if cached is not None:
            return cached
        k = self.kernel_size
        pad = self._pad_amount()
        out_h = h + 2 * pad - k + 1
        out_w = w + 2 * pad - k + 1
        c = self.in_channels
        i0 = np.repeat(np.arange(k), k)
        i0 = np.tile(i0, c)
        i1 = np.repeat(np.arange(out_h), out_w)
        j0 = np.tile(np.arange(k), k * c)
        j1 = np.tile(np.arange(out_w), out_h)
        ii = i0.reshape(-1, 1) + i1.reshape(1, -1)
        jj = j0.reshape(-1, 1) + j1.reshape(1, -1)
        kk = np.repeat(np.arange(c), k * k).reshape(-1, 1)
        result = (kk, ii, jj, out_h, out_w)
        self._idx_cache[(h, w)] = result
        return result

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2D expects (batch, {self.in_channels}, H, W), got {x.shape}"
            )
        n, _, h, w = x.shape
        pad = self._pad_amount()
        if pad:
            x_pad = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        else:
            x_pad = x
        kk, ii, jj, out_h, out_w = self._col_indices(h, w)
        # cols: (n, C*k*k, out_h*out_w)
        cols = x_pad[:, kk, ii, jj]
        w_row = self.W.value.reshape(self.out_channels, -1)
        out = w_row @ cols  # (n, F, out_h*out_w) via batched GEMM
        out += self.b.value[:, None]
        self._cache = (x.shape, x_pad.shape, cols, kk, ii, jj)
        return out.reshape(n, self.out_channels, out_h, out_w)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._cache is not None, "backward before forward"
        x_shape, x_pad_shape, cols, kk, ii, jj = self._cache
        n = grad.shape[0]
        f = self.out_channels
        grad2 = grad.reshape(n, f, -1)  # (n, F, L)
        # dW: sum over batch of grad2 @ cols^T, contracted over (n, L) in
        # one GEMM (tensordot) instead of an unoptimized einsum loop.
        dw = np.tensordot(grad2, cols, axes=([0, 2], [0, 2]))
        self.W.grad[...] = dw.reshape(self.W.value.shape)
        np.sum(grad2, axis=(0, 2), out=self.b.grad)
        # dcols = W^T @ grad2 : (n, C*k*k, L) via batched GEMM
        w_row = self.W.value.reshape(f, -1)
        dcols = np.matmul(w_row.T, grad2)
        # col2im: scatter-add back into the padded input.
        dx_pad = np.zeros(x_pad_shape)
        np.add.at(dx_pad, (slice(None), kk, ii, jj), dcols)
        pad = self._pad_amount()
        if pad:
            return dx_pad[:, :, pad:-pad, pad:-pad]
        return dx_pad


class MaxPool2D(Layer):
    """Max pooling over non-overlapping square windows (stride = window);
    default 2x2 (Fig. 5)."""

    def __init__(self, pool_size: int = 2) -> None:
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        self.pool_size = pool_size
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"MaxPool2D expects NCHW, got shape {x.shape}")
        n, c, h, w = x.shape
        p = self.pool_size
        out_h, out_w = h // p, w // p
        # The windows as a reshape, flattened to the di * p + dj order the
        # backward pass decodes; a ragged edge is cut off, as Keras does
        # (13 -> 6 in Fig. 5).
        view = x[:, :, : out_h * p, : out_w * p].reshape(n, c, out_h, p, out_w, p)
        windows = view.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, out_h, out_w, p * p)
        argmax = windows.argmax(axis=-1)
        out = np.take_along_axis(windows, argmax[..., None], axis=-1)[..., 0]
        self._cache = (x.shape, argmax)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._cache is not None, "backward before forward"
        x_shape, argmax = self._cache
        n, c, h, w = x_shape
        p = self.pool_size
        out_h, out_w = argmax.shape[2], argmax.shape[3]
        dx = np.zeros(x_shape)
        # Non-overlapping windows: each input cell gets at most one
        # gradient, so a plain scatter into per-window slots suffices.
        dwin = np.zeros((n, c, out_h, out_w, p * p))
        np.put_along_axis(dwin, argmax[..., None], grad[..., None], axis=-1)
        tile = dwin.reshape(n, c, out_h, out_w, p, p).transpose(0, 1, 2, 4, 3, 5)
        dx[:, :, : out_h * p, : out_w * p] = tile.reshape(n, c, out_h * p, out_w * p)
        return dx


class Dropout(Layer):
    """Inverted dropout: active only in training mode."""

    def __init__(self, rate: float, rng: np.random.Generator) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng = rng
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self.rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad
        return grad * self._mask


class Flatten(Layer):
    """Collapse all non-batch axes."""

    def __init__(self) -> None:
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._shape is not None, "backward before forward"
        return grad.reshape(self._shape)


class ReLU(Layer):
    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._mask is not None, "backward before forward"
        return grad * self._mask


class Softmax(Layer):
    """Row-wise softmax.

    When the model ends in Softmax and trains with
    :class:`~repro.nn.loss.CategoricalCrossEntropy`, the combined gradient
    simplifies to ``p - y``; :class:`~repro.nn.model.Sequential` applies
    that fusion automatically for numerical stability.
    """

    def __init__(self) -> None:
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        shifted = x - x.max(axis=1, keepdims=True)
        np.exp(shifted, out=shifted)
        shifted /= shifted.sum(axis=1, keepdims=True)
        self._out = shifted
        return shifted

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._out is not None, "backward before forward"
        p = self._out
        dot = np.sum(grad * p, axis=1, keepdims=True)
        return p * (grad - dot)
