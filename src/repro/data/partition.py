"""Training-data partitioners — the paper's three distributions (Sec. VI-A1).

- **IID**: each peer's shard is an i.i.d. sample of the training set.
- **Non-IID (5%)**: 95% of each peer's samples come from two "main"
  classes picked at random out of the ten; 5% come from the rest.
- **Non-IID (0%)**: each peer only holds samples from its two main classes.

Peers draw from per-class pools without replacement while the pools last
and fall back to sampling with replacement when a class pool is exhausted
(the paper does not specify; with 10 peers on a 10-class dataset pools
rarely run out, but the fallback keeps small synthetic datasets usable).
"""

from __future__ import annotations

import numpy as np

from .synthetic import Dataset


def partition_iid(
    labels: np.ndarray, n_peers: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Shuffle and deal the sample indices evenly to ``n_peers``."""
    if n_peers < 1:
        raise ValueError("need at least one peer")
    n = labels.shape[0]
    if n < n_peers:
        raise ValueError(f"cannot split {n} samples across {n_peers} peers")
    perm = rng.permutation(n)
    return [np.sort(part) for part in np.array_split(perm, n_peers)]


def partition_noniid(
    labels: np.ndarray,
    n_peers: int,
    rng: np.random.Generator,
    minor_fraction: float = 0.05,
) -> list[np.ndarray]:
    """The paper's non-IID split.

    Each peer gets ``floor(n / n_peers)`` samples: ``1 - minor_fraction``
    of them from two randomly selected classes and the rest
    from the remaining classes.  ``minor_fraction=0.05`` reproduces
    "Non-IID data (5%)"; ``0.0`` reproduces "Non-IID data (0%)".
    """
    if n_peers < 1:
        raise ValueError("need at least one peer")
    if not 0.0 <= minor_fraction <= 1.0:
        raise ValueError("minor_fraction must be in [0, 1]")
    classes = np.unique(labels)
    if classes.size < 2:
        raise ValueError(f"the non-IID split needs 2 classes, got {classes.size}")
    n = labels.shape[0]
    per_peer = n // n_peers
    if per_peer < 1:
        raise ValueError(f"cannot split {n} samples across {n_peers} peers")

    # Shuffled per-class index pools, consumed from the tail.
    pools = {
        int(c): list(rng.permutation(np.flatnonzero(labels == c)))
        for c in classes
    }

    def draw(pool_classes: np.ndarray, count: int) -> list[int]:
        """Draw ``count`` indices spread across ``pool_classes``."""
        out: list[int] = []
        for i in range(count):
            c = int(pool_classes[i % pool_classes.size])
            pool = pools[c]
            if pool:
                out.append(int(pool.pop()))
            else:
                # Pool exhausted: re-draw uniformly from that class.
                members = np.flatnonzero(labels == c)
                out.append(int(members[rng.integers(members.size)]))
        return out

    shards: list[np.ndarray] = []
    for _ in range(n_peers):
        main = rng.choice(classes, size=2, replace=False)
        rest = np.setdiff1d(classes, main)
        n_minor = int(round(per_peer * minor_fraction))
        if rest.size == 0:
            n_minor = 0
        n_major = per_peer - n_minor
        idx = draw(main, n_major)
        if n_minor:
            idx.extend(draw(rest, n_minor))
        shards.append(np.sort(np.asarray(idx, dtype=np.intp)))
    return shards


def peer_datasets(
    dataset: Dataset,
    n_peers: int,
    distribution: str,
    rng: np.random.Generator,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Materialize per-peer ``(x, y)`` shards for a named distribution.

    ``distribution`` is one of ``"iid"``, ``"noniid-5"``, ``"noniid-0"`` —
    the paper's three cases.
    """
    if distribution == "iid":
        shards = partition_iid(dataset.y_train, n_peers, rng)
    elif distribution == "noniid-5":
        shards = partition_noniid(dataset.y_train, n_peers, rng, minor_fraction=0.05)
    elif distribution == "noniid-0":
        shards = partition_noniid(dataset.y_train, n_peers, rng, minor_fraction=0.0)
    else:
        raise ValueError(
            f"unknown distribution {distribution!r}; expected 'iid', "
            "'noniid-5' or 'noniid-0'"
        )
    return [(dataset.x_train[idx], dataset.y_train[idx]) for idx in shards]


DISTRIBUTIONS = ("iid", "noniid-5", "noniid-0")
