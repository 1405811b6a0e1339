"""Tests for the IID / non-IID partitioners (Sec. VI-A1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import partition_iid, partition_noniid, peer_datasets, synthetic_blobs

RNG = lambda seed=0: np.random.default_rng(seed)


def labels_uniform(n=1000, n_classes=10, seed=0):
    return RNG(seed).integers(0, n_classes, size=n)


class TestIid:
    def test_disjoint_and_complete(self):
        labels = labels_uniform(100)
        shards = partition_iid(labels, 7, RNG())
        all_idx = np.concatenate(shards)
        assert len(all_idx) == 100
        assert len(np.unique(all_idx)) == 100

    def test_nearly_equal_sizes(self):
        shards = partition_iid(labels_uniform(100), 7, RNG())
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_class_balance_approximately_uniform(self):
        labels = labels_uniform(10000)
        shards = partition_iid(labels, 10, RNG())
        for shard in shards:
            counts = np.bincount(labels[shard], minlength=10)
            assert counts.min() > 50  # ~100 expected per class

    def test_validation(self):
        with pytest.raises(ValueError):
            partition_iid(labels_uniform(10), 0, RNG())
        with pytest.raises(ValueError):
            partition_iid(labels_uniform(3), 5, RNG())


class TestNonIid:
    def test_zero_percent_only_two_classes(self):
        labels = labels_uniform(2000)
        shards = partition_noniid(labels, 10, RNG(), minor_fraction=0.0)
        for shard in shards:
            assert len(np.unique(labels[shard])) <= 2

    def test_five_percent_mostly_two_classes(self):
        labels = labels_uniform(5000)
        shards = partition_noniid(labels, 10, RNG(), minor_fraction=0.05)
        for shard in shards:
            counts = np.bincount(labels[shard], minlength=10)
            top2 = np.sort(counts)[-2:].sum()
            assert top2 / counts.sum() >= 0.93  # ~95% from main classes

    def test_minor_fraction_respected(self):
        labels = labels_uniform(4000)
        shards = partition_noniid(labels, 4, RNG(), minor_fraction=0.05)
        per_peer = 1000
        for shard in shards:
            assert len(shard) == per_peer

    def test_main_classes_differ_across_peers(self):
        labels = labels_uniform(5000)
        shards = partition_noniid(labels, 10, RNG(0), minor_fraction=0.0)
        mains = [frozenset(np.unique(labels[s])) for s in shards]
        assert len(set(mains)) > 1

    def test_pool_exhaustion_falls_back_to_replacement(self):
        # 20 peers each wanting 2 classes from a tiny dataset.
        labels = labels_uniform(100, n_classes=3)
        shards = partition_noniid(labels, 20, RNG(), minor_fraction=0.0)
        assert all(len(s) == 5 for s in shards)

    def test_validation(self):
        labels = labels_uniform(100)
        with pytest.raises(ValueError):
            partition_noniid(labels, 0, RNG())
        with pytest.raises(ValueError):
            partition_noniid(labels, 2, RNG(), minor_fraction=1.5)
        with pytest.raises(ValueError, match="2 classes"):
            partition_noniid(np.zeros(100, dtype=int), 2, RNG())

    @given(
        n_peers=st.integers(1, 12),
        minor=st.sampled_from([0.0, 0.05, 0.2]),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_shard_sizes_equal(self, n_peers, minor, seed):
        labels = labels_uniform(1200, seed=seed)
        shards = partition_noniid(labels, n_peers, RNG(seed), minor_fraction=minor)
        per_peer = 1200 // n_peers
        assert all(len(s) == per_peer for s in shards)
        for s in shards:
            assert ((0 <= s) & (s < 1200)).all()


class TestPeerDatasets:
    def test_all_three_distributions(self):
        ds = synthetic_blobs(n_train=400, n_test=50, rng=RNG())
        for dist in ("iid", "noniid-5", "noniid-0"):
            shards = peer_datasets(ds, 4, dist, RNG(1))
            assert len(shards) == 4
            for x, y in shards:
                assert x.shape[0] == y.shape[0] > 0

    def test_unknown_distribution(self):
        ds = synthetic_blobs(n_train=100, n_test=10, rng=RNG())
        with pytest.raises(ValueError, match="unknown distribution"):
            peer_datasets(ds, 2, "weird", RNG())


class TestBatches:
    def test_covers_all_samples(self):
        from repro.data import batches

        x = np.arange(10.0).reshape(10, 1)
        y = np.arange(10)
        seen = []
        for xb, yb in batches(x, y, 3):
            seen.extend(yb.tolist())
        assert sorted(seen) == list(range(10))

    def test_shuffled_when_rng(self):
        from repro.data import batches

        x = np.arange(100.0).reshape(100, 1)
        y = np.arange(100)
        order = [int(v) for _, yb in batches(x, y, 100, rng=RNG(3)) for v in yb]
        assert order != list(range(100))
        assert sorted(order) == list(range(100))

    def test_validation(self):
        from repro.data import batches

        with pytest.raises(ValueError):
            list(batches(np.ones((2, 1)), np.ones(2), 0))
        with pytest.raises(ValueError):
            list(batches(np.ones((2, 1)), np.ones(3), 1))
