"""Dataset substrate: a synthetic stand-in for CIFAR-10 plus the paper's
IID / non-IID partitioners (Sec. VI-A1).

:func:`synthetic_cifar10` generates a 10-class image dataset from
per-class smooth templates plus noise, and :func:`synthetic_blobs` the
fast Gaussian-blob workload.  The FL experiments measure *relative*
behaviour (two-layer vs. one-layer SAC, IID vs. non-IID, fraction p),
which depends on label/partition structure rather than natural-image
statistics — see DESIGN.md.
"""

from .loader import batches
from .partition import (
    partition_iid,
    partition_noniid,
    peer_datasets,
)
from .synthetic import Dataset, synthetic_blobs, synthetic_cifar10

__all__ = [
    "Dataset",
    "synthetic_cifar10",
    "synthetic_blobs",
    "partition_iid",
    "partition_noniid",
    "peer_datasets",
    "batches",
]
