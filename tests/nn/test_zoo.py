"""Model-zoo tests — including the paper's exact 1.25M parameter count."""

import numpy as np
import pytest

from repro.nn import Adam, paper_cnn_cifar10, small_cnn
from repro.nn.zoo import PAPER_CNN_PARAMS

RNG = lambda seed=0: np.random.default_rng(seed)


class TestPaperCnn:
    def test_cifar10_param_count_matches_fig5(self):
        """Fig. 5: 'relatively small with 1.25M parameters'.

        1,250,858 is the exact count that reproduces the paper's cost
        numbers (196.13 Gb baseline at N=50, 7.12 Gb at m=6).
        """
        model = paper_cnn_cifar10(RNG())
        assert model.n_params == PAPER_CNN_PARAMS == 1_250_858

    def test_cifar10_forward_shape(self):
        model = paper_cnn_cifar10(RNG())
        out = model.predict(RNG().normal(size=(2, 3, 32, 32)))
        assert out.shape == (2, 10)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(2), rtol=1e-9)

    def test_cifar10_one_training_step_runs(self):
        model = paper_cnn_cifar10(RNG())
        opt = Adam(model.params(), lr=1e-4)
        x = RNG(1).normal(size=(4, 3, 32, 32))
        y = RNG(2).integers(0, 10, size=4)
        loss = model.train_batch(x, y)
        opt.step()
        assert np.isfinite(loss)


class TestSmallCnn:
    def test_forward_and_train(self):
        model = small_cnn(RNG(), in_channels=1, in_hw=8, n_classes=4)
        x = RNG(3).normal(size=(6, 1, 8, 8))
        y = RNG(4).integers(0, 4, size=6)
        opt = Adam(model.params(), lr=1e-3)
        first = model.train_batch(x, y)
        opt.step()
        for _ in range(30):
            last = model.train_batch(x, y)
            opt.step()
        assert last < first
