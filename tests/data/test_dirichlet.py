"""Tests for the Dirichlet label-skew partitioner."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import partition_dirichlet, peer_datasets, synthetic_blobs

RNG = lambda seed=0: np.random.default_rng(seed)


def labels_uniform(n=3000, n_classes=10, seed=0):
    return RNG(seed).integers(0, n_classes, size=n)


class TestDirichlet:
    def test_partitions_all_samples_disjointly(self):
        labels = labels_uniform(1000)
        shards = partition_dirichlet(labels, 5, RNG(1), alpha=0.5)
        joined = np.concatenate(shards)
        assert len(joined) == 1000
        assert len(np.unique(joined)) == 1000

    def test_large_alpha_approaches_iid(self):
        labels = labels_uniform(5000)
        shards = partition_dirichlet(labels, 5, RNG(2), alpha=1000.0)
        for shard in shards:
            counts = np.bincount(labels[shard], minlength=10)
            # Every class roughly equally represented.
            assert counts.min() > 0.5 * counts.mean()

    def test_small_alpha_concentrates_classes(self):
        labels = labels_uniform(5000)
        shards = partition_dirichlet(labels, 5, RNG(3), alpha=0.05)
        # At least one peer should be dominated by few classes.
        dominances = []
        for shard in shards:
            counts = np.bincount(labels[shard], minlength=10)
            if counts.sum() > 0:
                dominances.append(np.sort(counts)[-2:].sum() / counts.sum())
        assert max(dominances) > 0.6

    def test_skew_increases_as_alpha_decreases(self):
        labels = labels_uniform(8000)

        def mean_top2(alpha, seed):
            shards = partition_dirichlet(labels, 8, RNG(seed), alpha=alpha)
            fracs = []
            for s in shards:
                counts = np.bincount(labels[s], minlength=10)
                fracs.append(np.sort(counts)[-2:].sum() / max(1, counts.sum()))
            return np.mean(fracs)

        assert mean_top2(0.1, 4) > mean_top2(10.0, 4)

    def test_min_samples_guarantee(self):
        labels = labels_uniform(500)
        shards = partition_dirichlet(labels, 5, RNG(5), alpha=0.3)
        assert all(len(s) >= 1 for s in shards)

    def test_validation(self):
        labels = labels_uniform(100)
        with pytest.raises(ValueError):
            partition_dirichlet(labels, 0, RNG())
        with pytest.raises(ValueError):
            partition_dirichlet(labels, 2, RNG(), alpha=0.0)
        with pytest.raises(ValueError):
            partition_dirichlet(labels, 200, RNG())

    def test_impossible_min_samples_raises(self):
        labels = labels_uniform(100, n_classes=2)
        with pytest.raises((RuntimeError, ValueError)):
            partition_dirichlet(labels, 10, RNG(6), alpha=0.01, max_retries=3)

    @given(
        n_peers=st.integers(2, 8),
        alpha=st.sampled_from([0.1, 1.0, 10.0]),
        seed=st.integers(0, 500),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_exact_partition(self, n_peers, alpha, seed):
        labels = labels_uniform(1200, seed=seed)
        shards = partition_dirichlet(labels, n_peers, RNG(seed), alpha=alpha)
        joined = np.concatenate([s for s in shards if len(s)])
        assert len(joined) == 1200
        assert len(np.unique(joined)) == 1200


class TestPeerDatasetsDirichlet:
    def test_dirichlet_spec_string(self):
        ds = synthetic_blobs(n_train=600, n_test=50, rng=RNG(0))
        shards = peer_datasets(ds, 4, "dirichlet-0.5", RNG(1))
        assert len(shards) == 4
        assert sum(x.shape[0] for x, _ in shards) == 600

    def test_bad_spec(self):
        ds = synthetic_blobs(n_train=100, n_test=10, rng=RNG(0))
        with pytest.raises(ValueError, match="bad dirichlet"):
            peer_datasets(ds, 2, "dirichlet-banana", RNG())
