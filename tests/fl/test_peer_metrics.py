"""Tests for FLPeer and metrics utilities."""

import numpy as np
import pytest

from repro.data import synthetic_blobs
from repro.fl import FLPeer, MetricsHistory, RoundMetrics, moving_average
from repro.nn import mlp_classifier

RNG = lambda seed=0: np.random.default_rng(seed)


def make_peer(seed=0, n=120, lr=1e-2):
    ds = synthetic_blobs(n_train=n, n_test=40, n_features=6, rng=RNG(seed))
    model = mlp_classifier(6, rng=RNG(seed + 1), hidden=(16,))
    return (
        FLPeer(0, model, ds.x_train, ds.y_train, RNG(seed + 2), lr=lr, batch_size=20),
        ds,
    )


class TestFLPeer:
    def test_local_update_returns_finite_loss(self):
        peer, _ = make_peer()
        loss = peer.local_update()
        assert np.isfinite(loss)

    def test_training_improves_local_loss(self):
        peer, _ = make_peer(lr=1e-2)
        first = peer.local_update()
        for _ in range(20):
            last = peer.local_update()
        assert last < first

    def test_weights_roundtrip(self):
        peer, _ = make_peer()
        w = peer.get_weights().copy()
        peer.local_update()
        assert not np.allclose(peer.get_weights(), w)
        peer.set_weights(w)
        np.testing.assert_allclose(peer.get_weights(), w)

    def test_get_weights_reuses_buffer(self):
        peer, _ = make_peer()
        a = peer.get_weights()
        b = peer.get_weights()
        assert a is b

    def test_n_samples(self):
        peer, _ = make_peer(n=120)
        assert peer.n_samples == 120

    def test_validation(self):
        ds = synthetic_blobs(n_train=50, n_test=10, n_features=4, rng=RNG())
        model = mlp_classifier(4, rng=RNG())
        with pytest.raises(ValueError):
            FLPeer(0, model, ds.x_train, ds.y_train[:-1], RNG())
        with pytest.raises(ValueError):
            FLPeer(0, model, ds.x_train[:0], ds.y_train[:0], RNG())

    def test_evaluate(self):
        peer, ds = make_peer()
        loss, acc = peer.evaluate(ds.x_test, ds.y_test)
        assert 0.0 <= acc <= 1.0
        assert loss > 0


class TestMovingAverage:
    def test_window_one_is_identity(self):
        v = np.array([1.0, 5.0, 3.0])
        np.testing.assert_array_equal(moving_average(v, 1), v)

    def test_trailing_window(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        out = moving_average(v, 2)
        np.testing.assert_allclose(out, [1.0, 1.5, 2.5, 3.5])

    def test_warmup_prefix(self):
        v = np.array([2.0, 4.0, 6.0])
        out = moving_average(v, 10)
        np.testing.assert_allclose(out, [2.0, 3.0, 4.0])

    def test_empty(self):
        assert moving_average(np.array([]), 5).size == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            moving_average([1.0], 0)
        with pytest.raises(ValueError):
            moving_average(np.ones((2, 2)), 2)

    def test_constant_series_unchanged(self):
        v = np.full(20, 7.0)
        np.testing.assert_allclose(moving_average(v, 5), v)


class TestMetricsHistory:
    def _history(self):
        h = MetricsHistory()
        for i in range(20):
            h.append(
                RoundMetrics(
                    round=i,
                    test_accuracy=i / 20,
                    test_loss=1.0 - i / 40,
                    train_loss=2.0 - i / 20,
                    comm_bits=100.0,
                )
            )
        return h

    def test_arrays(self):
        h = self._history()
        assert len(h) == 20
        assert h.accuracy.shape == (20,)
        assert h.comm_bits.sum() == 2000.0

    def test_moving_average_views(self):
        h = self._history()
        assert h.accuracy_ma().shape == (20,)
        assert h.train_loss_ma(5)[0] == pytest.approx(2.0)

    def test_final_accuracy(self):
        h = self._history()
        assert h.final_accuracy(tail=1) == pytest.approx(19 / 20)
        assert h.final_accuracy(tail=5) == pytest.approx(np.mean([15, 16, 17, 18, 19]) / 20)

    def test_final_accuracy_empty(self):
        with pytest.raises(ValueError):
            MetricsHistory().final_accuracy()
