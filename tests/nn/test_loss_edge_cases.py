"""Edge-case tests for losses, initializers and Sequential plumbing."""

import numpy as np
import pytest

from repro.nn import (
    CategoricalCrossEntropy,
    Dense,
    Sequential,
    SoftmaxCrossEntropy,
    glorot_uniform,
    zeros,
)

RNG = lambda seed=0: np.random.default_rng(seed)


class TestLossStability:
    def test_ce_survives_zero_probability(self):
        probs = np.array([[1.0, 0.0]])
        labels = np.array([1])  # predicted probability exactly 0
        loss = CategoricalCrossEntropy().value(probs, labels)
        assert np.isfinite(loss) and loss > 10  # clamped, huge but finite

    def test_ce_gradient_survives_zero_probability(self):
        probs = np.array([[1.0, 0.0]])
        grad = CategoricalCrossEntropy().gradient(probs, np.array([1]))
        assert np.isfinite(grad).all()

    def test_softmax_ce_extreme_logits(self):
        logits = np.array([[1e4, -1e4, 0.0]])
        loss = SoftmaxCrossEntropy().value(logits, np.array([0]))
        assert loss == pytest.approx(0.0, abs=1e-6)
        grad = SoftmaxCrossEntropy().gradient(logits, np.array([0]))
        assert np.isfinite(grad).all()

    def test_softmax_ce_uniform_logits(self):
        logits = np.zeros((2, 4))
        loss = SoftmaxCrossEntropy().value(logits, np.array([0, 3]))
        assert loss == pytest.approx(np.log(4))


class TestInitializers:
    def test_glorot_bounds(self):
        w = glorot_uniform((100, 200), RNG(0))
        limit = np.sqrt(6.0 / 300)
        assert np.abs(w).max() <= limit

    def test_conv_fans(self):
        w = glorot_uniform((8, 4, 3, 3), RNG(2))
        limit = np.sqrt(6.0 / (4 * 9 + 8 * 9))
        assert np.abs(w).max() <= limit

    def test_zeros(self):
        np.testing.assert_array_equal(zeros((3, 2)), np.zeros((3, 2)))

    def test_unsupported_shape(self):
        with pytest.raises(ValueError):
            glorot_uniform((3,), RNG())


class TestSequentialPlumbing:
    def test_backward_before_forward_asserts(self):
        layer = Dense(2, 2, RNG())
        with pytest.raises(AssertionError):
            layer.backward(np.ones((1, 2)))

    def test_empty_hidden_mlp(self):
        from repro.nn import mlp_classifier

        model = mlp_classifier(4, rng=RNG(), hidden=(), n_classes=3)
        out = model.predict(RNG().normal(size=(2, 4)))
        assert out.shape == (2, 3)

    def test_n_params_consistent_with_flat(self):
        from repro.nn import get_flat_params, mlp_classifier

        model = mlp_classifier(5, rng=RNG(), hidden=(7, 3))
        assert get_flat_params(model).size == model.n_params
        expected = 5 * 7 + 7 + 7 * 3 + 3 + 3 * 10 + 10
        assert model.n_params == expected
