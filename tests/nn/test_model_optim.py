"""Tests for losses, optimizers, Sequential training, and serialization."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    CategoricalCrossEntropy,
    Dense,
    ReLU,
    Sequential,
    Softmax,
    SoftmaxCrossEntropy,
    get_flat_params,
    mlp_classifier,
    set_flat_params,
)
from repro.nn import model as model_module
from repro.nn.layers import Param

RNG = lambda seed=0: np.random.default_rng(seed)


class TestLosses:
    def test_ce_perfect_prediction_near_zero(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = np.array([0, 1])
        assert CategoricalCrossEntropy().value(probs, labels) < 1e-9

    def test_ce_uniform_prediction(self):
        probs = np.full((4, 10), 0.1)
        labels = np.arange(4)
        assert CategoricalCrossEntropy().value(probs, labels) == pytest.approx(
            np.log(10)
        )

    def test_fused_gradient_matches_softmax_ce(self):
        logits = RNG(0).normal(size=(6, 5))
        labels = RNG(1).integers(0, 5, size=6)
        sce = SoftmaxCrossEntropy()
        probs = Softmax().forward(logits)
        fused = CategoricalCrossEntropy().fused_gradient(probs, labels)
        np.testing.assert_allclose(fused, sce.gradient(logits, labels), rtol=1e-10)

    def test_softmax_ce_value_matches_composition(self):
        logits = RNG(2).normal(size=(6, 5))
        labels = RNG(3).integers(0, 5, size=6)
        probs = Softmax().forward(logits)
        a = SoftmaxCrossEntropy().value(logits, labels)
        b = CategoricalCrossEntropy().value(probs, labels)
        assert a == pytest.approx(b, rel=1e-10)

    def test_ce_gradient_finite_difference(self):
        rng = RNG(4)
        probs = rng.dirichlet(np.ones(5), size=3)
        labels = np.array([0, 2, 4])
        loss = CategoricalCrossEntropy()
        grad = loss.gradient(probs, labels)
        eps = 1e-7
        for i in range(3):
            for j in range(5):
                p = probs.copy()
                p[i, j] += eps
                up = loss.value(p, labels)
                p[i, j] -= 2 * eps
                down = loss.value(p, labels)
                num = (up - down) / (2 * eps)
                assert grad[i, j] == pytest.approx(num, abs=1e-4)


class TestOptimizers:
    def _quadratic_param(self):
        # minimize f(p) = 0.5 * ||p - target||^2
        p = Param(np.array([5.0, -3.0]))
        target = np.array([1.0, 2.0])
        return p, target

    def test_adam_converges_on_quadratic(self):
        p, target = self._quadratic_param()
        opt = Adam([p], lr=0.1)
        for _ in range(500):
            p.grad[...] = p.value - target
            opt.step()
        np.testing.assert_allclose(p.value, target, atol=1e-3)

    def test_adam_first_step_magnitude_is_lr(self):
        # With bias correction, |first step| ~= lr regardless of grad scale.
        p = Param(np.array([0.0]))
        opt = Adam([p], lr=0.01)
        p.grad[...] = 1e6
        opt.step()
        assert abs(p.value[0] + 0.01) < 1e-6

    def test_zero_grad(self):
        p = Param(np.ones(3))
        p.grad[...] = 7.0
        Adam([p], lr=0.1).zero_grad()
        np.testing.assert_array_equal(p.grad, np.zeros(3))

    def test_adam_reset_state(self):
        p = Param(np.ones(2))
        opt = Adam([p], lr=0.1)
        p.grad[...] = 1.0
        opt.step()
        opt.reset_state()
        assert opt.t == 0
        np.testing.assert_array_equal(opt._m[0], np.zeros(2))

    def test_validation(self):
        p = Param(np.ones(1))
        with pytest.raises(ValueError):
            Adam([p], lr=0.0)


class TestSequentialTraining:
    def test_learns_linearly_separable_blobs(self):
        rng = RNG(0)
        n = 200
        x = np.concatenate(
            [rng.normal(-2, 0.5, size=(n, 2)), rng.normal(2, 0.5, size=(n, 2))]
        )
        y = np.concatenate([np.zeros(n, dtype=int), np.ones(n, dtype=int)])
        model = mlp_classifier(2, rng=rng, hidden=(16,), n_classes=2)
        opt = Adam(model.params(), lr=0.01)
        for _ in range(100):
            model.train_batch(x, y)
            opt.step()
        _, acc = model.evaluate(x, y)
        assert acc > 0.98

    def test_train_batch_decreases_loss(self):
        rng = RNG(1)
        x = rng.normal(size=(64, 8))
        y = rng.integers(0, 3, size=64)
        model = mlp_classifier(8, rng=rng, hidden=(16,), n_classes=3)
        opt = Adam(model.params(), lr=0.01)
        first = model.train_batch(x, y)
        opt.step()
        for _ in range(50):
            last = model.train_batch(x, y)
            opt.step()
        assert last < first

    def test_fused_backward_matches_explicit(self):
        """Training gradient identical whether softmax+CE is fused or not."""
        rng = RNG(2)
        x = rng.normal(size=(8, 4))
        y = rng.integers(0, 3, size=8)

        def build(seed):
            r = RNG(seed)
            return [Dense(4, 8, r), ReLU(), Dense(8, 3, r)]

        fused = Sequential(build(7) + [Softmax()])
        lf = fused.train_batch(x, y)
        # The explicit path: softmax + cross-entropy on the raw logits,
        # backpropagated through the same layers.
        plain = build(7)
        logits = x
        for layer in plain:
            logits = layer.forward(logits, training=True)
        sce = SoftmaxCrossEntropy()
        lp = sce.value(logits, y)
        grad = sce.gradient(logits, y)
        for layer in reversed(plain):
            grad = layer.backward(grad)
        assert lf == pytest.approx(lp, rel=1e-10)
        plain_params = [p for layer in plain for p in layer.params()]
        for pf, pp in zip(fused.params(), plain_params):
            np.testing.assert_allclose(pf.grad, pp.grad, rtol=1e-10)

    def test_evaluate_batching_consistent(self, monkeypatch):
        rng = RNG(3)
        x = rng.normal(size=(130, 5))
        y = rng.integers(0, 4, size=130)
        model = mlp_classifier(5, rng=rng, hidden=(8,), n_classes=4)
        monkeypatch.setattr(model_module, "EVAL_BATCH", 1000)
        big = model.evaluate(x, y)
        monkeypatch.setattr(model_module, "EVAL_BATCH", 7)
        small = model.evaluate(x, y)
        assert big[0] == pytest.approx(small[0], rel=1e-9)
        assert big[1] == small[1]

    def test_evaluate_empty_raises(self):
        model = mlp_classifier(5, rng=RNG(), hidden=(4,))
        with pytest.raises(ValueError):
            model.evaluate(np.empty((0, 5)), np.empty(0, dtype=int))

    def test_predict_labels(self):
        model = mlp_classifier(3, rng=RNG(4), hidden=(4,), n_classes=2)
        labels = model.predict_labels(RNG(5).normal(size=(10, 3)))
        assert labels.shape == (10,)
        assert set(labels) <= {0, 1}

    def test_summary_contains_total(self):
        model = mlp_classifier(3, rng=RNG(), hidden=(4,), n_classes=2)
        assert "total" in model.summary()
        assert f"{model.n_params:,}" in model.summary()


class TestSerialization:
    def test_roundtrip(self):
        model = mlp_classifier(6, rng=RNG(0), hidden=(5,), n_classes=3)
        flat = get_flat_params(model)
        assert flat.shape == (model.n_params,)
        other = mlp_classifier(6, rng=RNG(99), hidden=(5,), n_classes=3)
        set_flat_params(other, flat)
        np.testing.assert_array_equal(get_flat_params(other), flat)
        x = RNG(1).normal(size=(4, 6))
        np.testing.assert_allclose(model.predict(x), other.predict(x))

    def test_out_buffer_reused(self):
        model = mlp_classifier(4, rng=RNG(), hidden=(3,))
        buf = np.empty(model.n_params)
        out = get_flat_params(model, out=buf)
        assert out is buf

    def test_wrong_buffer_shape_rejected(self):
        model = mlp_classifier(4, rng=RNG(), hidden=(3,))
        with pytest.raises(ValueError):
            get_flat_params(model, out=np.empty(3))
        with pytest.raises(ValueError):
            set_flat_params(model, np.empty(3))

    def test_set_modifies_in_place(self):
        model = mlp_classifier(4, rng=RNG(), hidden=(3,))
        before = [p.value for p in model.params()]
        set_flat_params(model, np.zeros(model.n_params))
        for p, buf in zip(model.params(), before):
            assert p.value is buf  # same buffer, new contents
            np.testing.assert_array_equal(p.value, np.zeros_like(p.value))
