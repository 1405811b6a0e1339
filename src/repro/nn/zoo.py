"""Model zoo: the paper's Fig. 5 CNN and fast stand-ins.

``paper_cnn_cifar10`` reproduces the baseline CNN exactly: two blocks of
(Conv 3x3 'same' -> ReLU -> Conv 3x3 'valid' -> ReLU -> MaxPool 2x2 ->
Dropout) with 32 then 64 filters, Flatten, Dense 512 + ReLU + Dropout,
Dense 10 + Softmax.  Its parameter count is **1,250,858** — the "1.25M"
of Fig. 5, which also makes the paper's cost figures exact:
``2*50*49 * 1,250,858 * 32 bit = 196.13 Gb`` (Sec. VII-B) and
``178 * 1,250,858 * 32 bit = 7.12 Gb`` at m=6 (Fig. 13).
"""

from __future__ import annotations

import numpy as np

from .layers import Conv2D, Dense, Dropout, Flatten, MaxPool2D, ReLU, Softmax
from .model import Sequential

#: Exact parameter count of the Fig. 5 CNN (see module docstring).
PAPER_CNN_PARAMS = 1_250_858


def _paper_cnn(in_channels: int, in_hw: int, rng: np.random.Generator) -> Sequential:
    def dim_after_block(d: int) -> int:
        # same-conv keeps d, valid-conv subtracts 2, pool floors d/2.
        return (d - 2) // 2

    d = dim_after_block(dim_after_block(in_hw))
    flat = 64 * d * d
    return Sequential(
        [
            Conv2D(in_channels, 32, 3, rng, padding="same"),
            ReLU(),
            Conv2D(32, 32, 3, rng, padding="valid"),
            ReLU(),
            MaxPool2D(2),
            Dropout(0.25, rng),
            Conv2D(32, 64, 3, rng, padding="same"),
            ReLU(),
            Conv2D(64, 64, 3, rng, padding="valid"),
            ReLU(),
            MaxPool2D(2),
            Dropout(0.25, rng),
            Flatten(),
            Dense(flat, 512, rng),
            ReLU(),
            Dropout(0.5, rng),
            Dense(512, 10, rng),
            Softmax(),
        ]
    )


def paper_cnn_cifar10(rng: np.random.Generator | None = None) -> Sequential:
    """The Fig. 5 CNN for 32x32x3 inputs (1,250,858 parameters)."""
    return _paper_cnn(3, 32, rng if rng is not None else np.random.default_rng(0))


def small_cnn(
    rng: np.random.Generator | None = None,
    in_channels: int = 1,
    in_hw: int = 8,
    n_classes: int = 10,
) -> Sequential:
    """A tiny CNN with the Fig. 5 block structure, for fast tests."""
    rng = rng if rng is not None else np.random.default_rng(0)
    d = (in_hw - 2) // 2
    return Sequential(
        [
            Conv2D(in_channels, 4, 3, rng, padding="same"),
            ReLU(),
            Conv2D(4, 4, 3, rng, padding="valid"),
            ReLU(),
            MaxPool2D(2),
            Dropout(0.25, rng),
            Flatten(),
            Dense(4 * d * d, 32, rng),
            ReLU(),
            Dense(32, n_classes, rng),
            Softmax(),
        ]
    )


def mlp_classifier(
    in_features: int,
    rng: np.random.Generator | None = None,
    hidden: tuple[int, ...] = (64,),
    n_classes: int = 10,
    dropout: float = 0.0,
) -> Sequential:
    """MLP used by the fast FL experiments (same training/aggregation path)."""
    rng = rng if rng is not None else np.random.default_rng(0)
    layers: list = []
    prev = in_features
    for width in hidden:
        layers += [Dense(prev, width, rng), ReLU()]
        if dropout:
            layers.append(Dropout(dropout, rng))
        prev = width
    layers += [Dense(prev, n_classes, rng), Softmax()]
    return Sequential(layers)
