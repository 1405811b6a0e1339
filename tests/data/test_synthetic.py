"""Tests for the synthetic dataset generators."""

import numpy as np
import pytest

from repro.data import Dataset, synthetic_blobs, synthetic_cifar10
from repro.nn import Adam, mlp_classifier

RNG = lambda seed=0: np.random.default_rng(seed)


class TestShapes:
    def test_cifar_shapes(self):
        ds = synthetic_cifar10(n_train=50, n_test=10, rng=RNG())
        assert ds.x_train.shape == (50, 3, 32, 32)
        assert ds.x_test.shape == (10, 3, 32, 32)
        assert ds.n_classes == 10
        assert ds.sample_shape == (3, 32, 32)
        assert ds.name == "synthetic-cifar10"

    def test_blobs_shapes(self):
        ds = synthetic_blobs(n_train=200, n_test=50, n_features=8, rng=RNG())
        assert ds.x_train.shape == (200, 8)
        assert ds.n_train == 200 and ds.n_test == 50

    def test_flattened_is_view(self):
        ds = synthetic_cifar10(n_train=10, n_test=5, rng=RNG())
        flat = ds.flattened()
        assert flat.x_train.shape == (10, 3072)
        assert flat.x_train.base is ds.x_train  # no copy

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((3, 2)), np.ones(2), np.ones((1, 2)), np.ones(1), 2)


class TestStatistics:
    def test_all_classes_present(self):
        ds = synthetic_cifar10(n_train=2000, n_test=500, rng=RNG())
        assert set(np.unique(ds.y_train)) == set(range(10))
        assert set(np.unique(ds.y_test)) == set(range(10))

    def test_deterministic_for_seed(self):
        a = synthetic_blobs(n_train=50, rng=RNG(7))
        b = synthetic_blobs(n_train=50, rng=RNG(7))
        np.testing.assert_array_equal(a.x_train, b.x_train)
        np.testing.assert_array_equal(a.y_train, b.y_train)

    def test_different_seeds_differ(self):
        a = synthetic_blobs(n_train=50, rng=RNG(1))
        b = synthetic_blobs(n_train=50, rng=RNG(2))
        assert not np.array_equal(a.x_train, b.x_train)

    def test_same_class_samples_correlated(self):
        """Samples of one class share a template; cross-class differ more."""
        ds = synthetic_cifar10(n_train=500, n_test=10, rng=RNG())
        x = ds.x_train.reshape(500, -1)
        y = ds.y_train
        c0 = x[y == 0]
        c1 = x[y == 1]
        within = np.linalg.norm(c0[0] - c0[1])
        across = np.linalg.norm(c0[0] - c1[0])
        assert across > within


class TestLearnability:
    def test_blobs_learnable_by_mlp(self):
        """The fast FL workload must be solvable: a small MLP centralizes >80%."""
        ds = synthetic_blobs(n_train=1000, n_test=300, rng=RNG(0), separation=3.0)
        model = mlp_classifier(ds.x_train.shape[1], rng=RNG(1), hidden=(32,))
        opt = Adam(model.params(), lr=0.01)
        for _ in range(150):
            model.train_batch(ds.x_train, ds.y_train)
            opt.step()
        _, acc = model.evaluate(ds.x_test, ds.y_test)
        assert acc > 0.8

    def test_cifar_learnable_by_mlp(self):
        ds = synthetic_cifar10(n_train=500, n_test=200, rng=RNG(0))
        flat = ds.flattened()
        model = mlp_classifier(3072, rng=RNG(1), hidden=(32,))
        opt = Adam(model.params(), lr=0.005)
        for _ in range(60):
            model.train_batch(flat.x_train, flat.y_train)
            opt.step()
        _, acc = model.evaluate(flat.x_test, flat.y_test)
        assert acc > 0.8
