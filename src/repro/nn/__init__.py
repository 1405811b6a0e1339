"""Minimal NumPy neural-network library (the PyTorch substitute).

Implements exactly what the paper's evaluation needs: the Fig. 5 CNN
(convolutions, max pooling, dropout, dense layers, ReLU/softmax), the
Adam optimizer, and categorical cross-entropy — plus flat-parameter
serialization, which is what the secure-aggregation protocols operate on.

Design notes (per the HPC guides): everything is vectorized over the
batch; convolution uses im2col so the hot loop is a single GEMM;
parameters live in contiguous float64 arrays and serialize to one flat
vector with no copies beyond the final concatenate.
"""

from .initializers import glorot_uniform, zeros
from .layers import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    MaxPool2D,
    ReLU,
    Softmax,
)
from .loss import CategoricalCrossEntropy, SoftmaxCrossEntropy
from .model import Sequential
from .optim import Adam, Optimizer
from .serialize import get_flat_params, set_flat_params
from .zoo import mlp_classifier, paper_cnn_cifar10, small_cnn

__all__ = [
    "Layer",
    "Dense",
    "Conv2D",
    "MaxPool2D",
    "Dropout",
    "Flatten",
    "ReLU",
    "Softmax",
    "CategoricalCrossEntropy",
    "SoftmaxCrossEntropy",
    "Sequential",
    "Optimizer",
    "Adam",
    "get_flat_params",
    "set_flat_params",
    "glorot_uniform",
    "zeros",
    "paper_cnn_cifar10",
    "small_cnn",
    "mlp_classifier",
]
