"""Synthetic 10-class datasets (a CIFAR-10 stand-in and Gaussian blobs).

Each class c gets a deterministic *template* image drawn from smooth
low-frequency noise; a sample of class c is its template plus i.i.d.
pixel noise.  The signal-to-noise ratio is tuned so that a small model
reaches high accuracy on IID data but struggles when peers only see two
classes — preserving the paper's IID > non-IID(5%) > non-IID(0%) ordering.

``synthetic_blobs`` is a low-dimensional Gaussian-blob dataset used by
the fast FL experiments; it exercises the exact same training and
aggregation code path as the image datasets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Dataset:
    """A supervised dataset split into train and test."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    n_classes: int
    name: str = "dataset"

    def __post_init__(self) -> None:
        if self.x_train.shape[0] != self.y_train.shape[0]:
            raise ValueError("x_train / y_train length mismatch")
        if self.x_test.shape[0] != self.y_test.shape[0]:
            raise ValueError("x_test / y_test length mismatch")

    @property
    def n_train(self) -> int:
        return self.x_train.shape[0]

    @property
    def n_test(self) -> int:
        return self.x_test.shape[0]

    @property
    def sample_shape(self) -> tuple[int, ...]:
        return self.x_train.shape[1:]

    def flattened(self) -> "Dataset":
        """View with samples reshaped to 1-D (for MLP models); no copy."""
        return Dataset(
            self.x_train.reshape(self.n_train, -1),
            self.y_train,
            self.x_test.reshape(self.n_test, -1),
            self.y_test,
            self.n_classes,
            name=self.name + "-flat",
        )


def _smooth_template(
    shape: tuple[int, ...], rng: np.random.Generator, smoothness: int = 4
) -> np.ndarray:
    """A low-frequency random image: coarse noise upsampled bilinearly."""
    c, h, w = shape
    coarse = rng.normal(size=(c, smoothness, smoothness))
    # Bilinear upsample via separable linear interpolation.
    ys = np.linspace(0, smoothness - 1, h)
    xs = np.linspace(0, smoothness - 1, w)
    y0 = np.clip(ys.astype(int), 0, smoothness - 2)
    x0 = np.clip(xs.astype(int), 0, smoothness - 2)
    wy = (ys - y0)[None, :, None]
    wx = (xs - x0)[None, None, :]
    tl = coarse[:, y0][:, :, x0]
    tr = coarse[:, y0][:, :, x0 + 1]
    bl = coarse[:, y0 + 1][:, :, x0]
    br = coarse[:, y0 + 1][:, :, x0 + 1]
    top = tl * (1 - wx) + tr * wx
    bot = bl * (1 - wx) + br * wx
    return top * (1 - wy) + bot * wy


def _image_dataset(
    shape: tuple[int, int, int],
    n_train: int,
    n_test: int,
    rng: np.random.Generator,
    noise: float,
    n_classes: int,
    name: str,
) -> Dataset:
    templates = np.stack(
        [_smooth_template(shape, rng) for _ in range(n_classes)]
    )

    def make(n: int) -> tuple[np.ndarray, np.ndarray]:
        labels = rng.integers(0, n_classes, size=n)
        x = templates[labels] + rng.normal(0.0, noise, size=(n, *shape))
        return x, labels

    x_train, y_train = make(n_train)
    x_test, y_test = make(n_test)
    return Dataset(x_train, y_train, x_test, y_test, n_classes, name=name)


def synthetic_cifar10(
    n_train: int = 5000,
    n_test: int = 1000,
    rng: np.random.Generator | None = None,
    noise: float = 1.0,
) -> Dataset:
    """Synthetic stand-in for CIFAR-10: 32x32 RGB, 10 classes."""
    rng = rng if rng is not None else np.random.default_rng(0)
    return _image_dataset((3, 32, 32), n_train, n_test, rng, noise, 10, "synthetic-cifar10")


def synthetic_blobs(
    n_train: int = 2000,
    n_test: int = 500,
    n_features: int = 32,
    n_classes: int = 10,
    rng: np.random.Generator | None = None,
    separation: float = 2.0,
    noise: float = 1.0,
) -> Dataset:
    """Gaussian blobs in ``n_features`` dimensions — the fast FL workload."""
    rng = rng if rng is not None else np.random.default_rng(0)
    centers = rng.normal(0.0, separation, size=(n_classes, n_features))

    def make(n: int) -> tuple[np.ndarray, np.ndarray]:
        labels = rng.integers(0, n_classes, size=n)
        x = centers[labels] + rng.normal(0.0, noise, size=(n, n_features))
        return x, labels

    x_train, y_train = make(n_train)
    x_test, y_test = make(n_test)
    return Dataset(x_train, y_train, x_test, y_test, n_classes, name="synthetic-blobs")
