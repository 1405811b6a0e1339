"""Bitwise pins for the perf work in the NN stack.

Three optimisations must be pure speedups — identical floats out:
``Conv2D``'s per-shape im2col index cache, ``MaxPool2D``'s vectorised
window extraction / scatter backward, and ``Adam``'s in-place moment
updates.  Each test compares against a straightforward reference
implementation of the pre-optimisation code.
"""

import numpy as np
import pytest

from repro.nn.layers import Conv2D, MaxPool2D, Param
from repro.nn.optim import Adam

RNG = lambda seed=0: np.random.default_rng(seed)


class TestConv2DIndexCache:
    def test_repeated_forward_backward_bitwise_stable(self):
        conv = Conv2D(3, 4, 3, RNG(1), padding="same")
        x = RNG(2).normal(size=(2, 3, 9, 9))
        grad = RNG(3).normal(size=(2, 4, 9, 9))
        outs, dxs, dws = [], [], []
        for _ in range(3):
            outs.append(conv.forward(x))
            dxs.append(conv.backward(grad))
            dws.append(conv.W.grad.copy())
        for i in (1, 2):
            assert np.array_equal(outs[i], outs[0])
            assert np.array_equal(dxs[i], dxs[0])
            assert np.array_equal(dws[i], dws[0])

    def test_cache_hit_reuses_index_arrays(self):
        conv = Conv2D(2, 3, 3, RNG(0))
        x = RNG(1).normal(size=(1, 2, 8, 8))
        conv.forward(x)
        kk1, ii1, jj1, *_ = conv._idx_cache[(8, 8)]
        conv.forward(x)
        kk2, ii2, jj2, *_ = conv._idx_cache[(8, 8)]
        assert kk1 is kk2 and ii1 is ii2 and jj1 is jj2

    def test_cached_matches_fresh_layer_per_shape(self):
        # A warm cache from one input shape must not leak into another.
        conv = Conv2D(2, 3, 3, RNG(5))
        for hw in ((9, 9), (11, 7), (9, 9)):
            x = RNG(sum(hw)).normal(size=(2, 2) + hw)
            fresh = Conv2D(2, 3, 3, RNG(5))
            out = conv.forward(x)
            assert np.array_equal(out, fresh.forward(x))
            grad = RNG(7).normal(size=out.shape)
            assert np.array_equal(conv.backward(grad), fresh.backward(grad))
            assert np.array_equal(conv.W.grad, fresh.W.grad)


def _maxpool_reference(x, p, s, grad):
    """The pre-vectorisation di/dj loops + scatter-add backward."""
    n, c, h, w = x.shape
    out_h = (h - p) // s + 1
    out_w = (w - p) // s + 1
    windows = np.empty((n, c, out_h, out_w, p * p))
    for di in range(p):
        for dj in range(p):
            windows[..., di * p + dj] = x[
                :, :, di : di + out_h * s : s, dj : dj + out_w * s : s
            ]
    argmax = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, argmax[..., None], axis=-1)[..., 0]
    dx = np.zeros(x.shape)
    di, dj = argmax // p, argmax % p
    rows = np.arange(out_h)[None, None, :, None] * s + di
    cols = np.arange(out_w)[None, None, None, :] * s + dj
    ni = np.arange(n)[:, None, None, None]
    ci = np.arange(c)[None, :, None, None]
    np.add.at(dx, (ni, ci, rows, cols), grad)
    return out, dx


class TestMaxPool2DVectorised:
    @pytest.mark.parametrize("h,w,p,s", [
        (12, 12, 2, 2),   # fast reshape path
        (13, 13, 2, 2),   # truncation (Fig. 5's 13 -> 6)
        (9, 11, 3, 3),    # non-overlapping, ragged edge
    ])
    def test_forward_backward_bitwise_vs_loop_reference(self, h, w, p, s):
        x = RNG(h * w + p).normal(size=(2, 3, h, w))
        layer = MaxPool2D(p)
        out = layer.forward(x)
        grad = RNG(42).normal(size=out.shape)
        dx = layer.backward(grad)
        ref_out, ref_dx = _maxpool_reference(x, p, s, grad)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(dx, ref_dx)

    def test_ties_resolve_to_first_window_slot(self):
        # argmax tie-breaking (first max wins) must match the reference
        # so constant regions route gradients identically.
        x = np.ones((1, 1, 6, 6))
        layer = MaxPool2D(2)
        out = layer.forward(x)
        grad = RNG(0).normal(size=out.shape)
        dx = layer.backward(grad)
        _, ref_dx = _maxpool_reference(x, 2, 2, grad)
        assert np.array_equal(dx, ref_dx)


def _adam_reference(values, grads_seq, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The pre-optimisation allocating update, op for op."""
    vals = [v.copy() for v in values]
    ms = [np.zeros_like(v) for v in vals]
    vs = [np.zeros_like(v) for v in vals]
    for t, grads in enumerate(grads_seq, start=1):
        bias1, bias2 = 1.0 - b1**t, 1.0 - b2**t
        for p, g, m, v in zip(vals, grads, ms, vs):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * np.square(g)
            update = m / bias1
            update /= np.sqrt(v / bias2) + eps
            update *= lr
            p -= update
    return vals


class TestAdamInPlace:
    def test_trajectory_bitwise_unchanged(self):
        rng = RNG(0)
        vals0 = [rng.normal(size=(4, 5)), rng.normal(size=(7,)),
                 rng.normal(size=(2, 3, 3))]
        grads_seq = [
            [rng.normal(size=v.shape) for v in vals0] for _ in range(25)
        ]
        params = [Param(v.copy(), "p") for v in vals0]
        opt = Adam(params, lr=1e-3)
        for grads in grads_seq:
            for p, g in zip(params, grads):
                p.grad[...] = g
            opt.step()
        for p, ref in zip(params, _adam_reference(vals0, grads_seq, 1e-3)):
            assert np.array_equal(p.value, ref)

    def test_step_allocates_no_new_buffers(self):
        params = [Param(RNG(1).normal(size=(16, 16)), "p")]
        opt = Adam(params, lr=1e-3)
        params[0].grad[...] = RNG(2).normal(size=(16, 16))
        opt.step()
        s1, s2 = opt._s1[0], opt._s2[0]
        m, v = opt._m[0], opt._v[0]
        opt.step()
        assert opt._s1[0] is s1 and opt._s2[0] is s2
        assert opt._m[0] is m and opt._v[0] is v

    def test_reset_state_still_zeroes_moments(self):
        params = [Param(RNG(3).normal(size=(4,)), "p")]
        opt = Adam(params, lr=1e-2)
        params[0].grad[...] = 1.0
        opt.step()
        opt.reset_state()
        assert opt.t == 0
        assert not opt._m[0].any() and not opt._v[0].any()
