"""Layer tests: shapes, semantics, and numerical gradient checks."""

import numpy as np
import pytest

from repro.nn.layers import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    ReLU,
    Softmax,
)

RNG = lambda seed=0: np.random.default_rng(seed)


def numeric_grad(fn, x, eps=1e-6):
    """Central-difference gradient of scalar fn w.r.t. array x."""
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        plus = fn()
        flat[i] = orig - eps
        minus = fn()
        flat[i] = orig
        gflat[i] = (plus - minus) / (2 * eps)
    return grad


def check_input_grad(layer, x, seed=0):
    """Compare layer.backward against finite differences of sum(out*R)."""
    rng = RNG(seed)
    out = layer.forward(x, training=False)
    r = rng.normal(size=out.shape)

    def scalar():
        return float(np.sum(layer.forward(x, training=False) * r))

    expected = numeric_grad(scalar, x)
    layer.forward(x, training=False)
    got = layer.backward(r)
    np.testing.assert_allclose(got, expected, rtol=1e-4, atol=1e-6)


def check_param_grads(layer, x, seed=0):
    rng = RNG(seed)
    out = layer.forward(x, training=False)
    r = rng.normal(size=out.shape)
    layer.backward(r)
    for p in layer.params():
        analytic = p.grad.copy()

        def scalar():
            return float(np.sum(layer.forward(x, training=False) * r))

        expected = numeric_grad(scalar, p.value)
        np.testing.assert_allclose(analytic, expected, rtol=1e-4, atol=1e-6)


class TestDense:
    def test_forward_shape_and_value(self):
        layer = Dense(3, 2, RNG())
        layer.W.value[...] = np.arange(6).reshape(3, 2)
        layer.b.value[...] = [1.0, -1.0]
        out = layer.forward(np.array([[1.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out, [[1.0, 0.0]])

    def test_input_gradient(self):
        layer = Dense(4, 3, RNG(1))
        check_input_grad(layer, RNG(2).normal(size=(5, 4)))

    def test_param_gradients(self):
        layer = Dense(4, 3, RNG(1))
        check_param_grads(layer, RNG(2).normal(size=(5, 4)))

    def test_shape_validation(self):
        layer = Dense(4, 3, RNG())
        with pytest.raises(ValueError):
            layer.forward(np.ones((2, 5)))


class TestConv2D:
    def test_valid_output_shape(self):
        layer = Conv2D(3, 8, 3, RNG(), padding="valid")
        out = layer.forward(RNG().normal(size=(2, 3, 10, 10)))
        assert out.shape == (2, 8, 8, 8)

    def test_same_output_shape(self):
        layer = Conv2D(3, 8, 3, RNG(), padding="same")
        out = layer.forward(RNG().normal(size=(2, 3, 10, 10)))
        assert out.shape == (2, 8, 10, 10)

    def test_known_convolution_value(self):
        # 1x1 input channel, identity-like kernel picks the center pixel.
        layer = Conv2D(1, 1, 3, RNG(), padding="valid")
        layer.W.value[...] = 0.0
        layer.W.value[0, 0, 1, 1] = 1.0
        layer.b.value[...] = 0.0
        x = np.arange(25.0).reshape(1, 1, 5, 5)
        out = layer.forward(x)
        np.testing.assert_allclose(out[0, 0], x[0, 0, 1:-1, 1:-1])

    def test_input_gradient_valid(self):
        layer = Conv2D(2, 3, 3, RNG(3), padding="valid")
        check_input_grad(layer, RNG(4).normal(size=(2, 2, 6, 6)))

    def test_input_gradient_same(self):
        layer = Conv2D(2, 2, 3, RNG(3), padding="same")
        check_input_grad(layer, RNG(4).normal(size=(2, 2, 5, 5)))

    def test_param_gradients(self):
        layer = Conv2D(2, 2, 3, RNG(5), padding="same")
        check_param_grads(layer, RNG(6).normal(size=(2, 2, 4, 4)))

    def test_backward_deterministic_bitwise(self):
        """Repeated backward passes over the same cache must produce
        bit-identical gradients (GEMM-based path, no reduction jitter)."""
        layer = Conv2D(3, 4, 3, RNG(9), padding="same")
        x = RNG(10).normal(size=(4, 3, 8, 8))
        grad = RNG(11).normal(size=layer.forward(x).shape)
        layer.forward(x)
        dx1 = layer.backward(grad)
        dw1, db1 = layer.W.grad.copy(), layer.b.grad.copy()
        layer.forward(x)
        dx2 = layer.backward(grad)
        np.testing.assert_array_equal(dx1, dx2)
        np.testing.assert_array_equal(dw1, layer.W.grad)
        np.testing.assert_array_equal(db1, layer.b.grad)

    def test_backward_matches_explicit_gemm_bitwise(self):
        """The tensordot/matmul formulation must be *bitwise* equal to
        the explicit reshaped-GEMM reference it is algebraically."""
        layer = Conv2D(2, 5, 3, RNG(12), padding="valid")
        x = RNG(13).normal(size=(3, 2, 9, 9))
        out = layer.forward(x)
        grad = RNG(14).normal(size=out.shape)
        layer.backward(grad)
        _, _, cols, _, _, _ = layer._cache
        n, f = grad.shape[0], layer.out_channels
        g2 = grad.reshape(n, f, -1)
        c, ln = cols.shape[1], n * cols.shape[2]
        # the documented tensordot lowering: one (f, n*l) x (n*l, c) GEMM
        ref_dw = (
            g2.transpose(1, 0, 2).reshape(f, ln)
            @ cols.transpose(0, 2, 1).reshape(ln, c)
        )
        np.testing.assert_array_equal(
            layer.W.grad, ref_dw.reshape(layer.W.value.shape)
        )
        w_row = layer.W.value.reshape(f, -1)
        ref_dcols = np.matmul(w_row.T, g2)
        assert ref_dcols.shape == (n, c, g2.shape[2])

    def test_backward_close_to_einsum_reference(self):
        """Numerical agreement with the original einsum formulation (the
        contraction order differs, so exact equality is not expected)."""
        layer = Conv2D(3, 4, 3, RNG(15), padding="same")
        x = RNG(16).normal(size=(2, 3, 7, 7))
        out = layer.forward(x)
        grad = RNG(17).normal(size=out.shape)
        layer.backward(grad)
        _, _, cols, _, _, _ = layer._cache
        n, f = grad.shape[0], layer.out_channels
        g2 = grad.reshape(n, f, -1)
        ref_dw = np.einsum("nfl,ncl->fc", g2, cols)
        np.testing.assert_allclose(
            layer.W.grad.reshape(f, -1), ref_dw, rtol=1e-10, atol=1e-12
        )

    def test_channel_validation(self):
        layer = Conv2D(3, 2, 3, RNG())
        with pytest.raises(ValueError):
            layer.forward(np.ones((1, 2, 5, 5)))

    def test_same_requires_odd_kernel(self):
        layer = Conv2D(1, 1, 2, RNG(), padding="same")
        with pytest.raises(ValueError):
            layer.forward(np.ones((1, 1, 4, 4)))

    def test_bad_padding_rejected(self):
        with pytest.raises(ValueError):
            Conv2D(1, 1, 3, RNG(), padding="full")


class TestMaxPool2D:
    def test_even_input_fast_path(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = MaxPool2D(2).forward(x)
        np.testing.assert_allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_odd_input_truncates_like_keras(self):
        # 13 -> 6 is what gives the Fig. 5 CNN its 2304-unit flatten.
        x = RNG().normal(size=(1, 1, 13, 13))
        out = MaxPool2D(2).forward(x)
        assert out.shape == (1, 1, 6, 6)

    def test_input_gradient_even(self):
        layer = MaxPool2D(2)
        check_input_grad(layer, RNG(9).normal(size=(2, 2, 4, 4)))

    def test_input_gradient_odd(self):
        layer = MaxPool2D(2)
        check_input_grad(layer, RNG(10).normal(size=(2, 1, 5, 5)))

    def test_gradient_routes_to_argmax_only(self):
        x = np.zeros((1, 1, 2, 2))
        x[0, 0, 1, 1] = 5.0
        layer = MaxPool2D(2)
        layer.forward(x)
        dx = layer.backward(np.ones((1, 1, 1, 1)))
        expected = np.zeros_like(x)
        expected[0, 0, 1, 1] = 1.0
        np.testing.assert_array_equal(dx, expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            MaxPool2D(0)
        with pytest.raises(ValueError):
            MaxPool2D(2).forward(np.ones((2, 3)))


class TestDropout:
    def test_inference_is_identity(self):
        layer = Dropout(0.5, RNG())
        x = RNG().normal(size=(4, 4))
        np.testing.assert_array_equal(layer.forward(x, training=False), x)

    def test_training_zeroes_fraction(self):
        layer = Dropout(0.5, RNG(0))
        x = np.ones((100, 100))
        out = layer.forward(x, training=True)
        frac_zero = np.mean(out == 0.0)
        assert 0.4 < frac_zero < 0.6

    def test_inverted_scaling_preserves_expectation(self):
        layer = Dropout(0.25, RNG(1))
        x = np.ones((200, 200))
        out = layer.forward(x, training=True)
        assert abs(out.mean() - 1.0) < 0.05

    def test_backward_uses_same_mask(self):
        layer = Dropout(0.5, RNG(2))
        x = np.ones((10, 10))
        out = layer.forward(x, training=True)
        grad = layer.backward(np.ones_like(x))
        np.testing.assert_array_equal(grad, out)

    def test_rate_zero_passthrough(self):
        layer = Dropout(0.0, RNG())
        x = RNG().normal(size=(3, 3))
        np.testing.assert_array_equal(layer.forward(x, training=True), x)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0, RNG())


class TestActivationsAndShape:
    def test_relu(self):
        layer = ReLU()
        out = layer.forward(np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 2.0]])
        grad = layer.backward(np.array([[5.0, 5.0]]))
        np.testing.assert_array_equal(grad, [[0.0, 5.0]])

    def test_relu_gradcheck(self):
        # Keep inputs away from the kink.
        x = RNG(11).normal(size=(4, 6))
        x[np.abs(x) < 0.1] += 0.5
        check_input_grad(ReLU(), x)

    def test_softmax_rows_sum_to_one(self):
        out = Softmax().forward(RNG(12).normal(size=(5, 10)))
        np.testing.assert_allclose(out.sum(axis=1), np.ones(5), rtol=1e-12)
        assert (out > 0).all()

    def test_softmax_shift_invariance(self):
        x = RNG(13).normal(size=(3, 4))
        a = Softmax().forward(x)
        b = Softmax().forward(x + 1000.0)
        np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_softmax_gradcheck(self):
        check_input_grad(Softmax(), RNG(14).normal(size=(3, 5)))

    def test_flatten_roundtrip(self):
        layer = Flatten()
        x = RNG(15).normal(size=(2, 3, 4, 5))
        out = layer.forward(x)
        assert out.shape == (2, 60)
        back = layer.backward(out)
        np.testing.assert_array_equal(back, x)
