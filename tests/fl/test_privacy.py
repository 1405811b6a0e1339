"""Tests for the differential-privacy utilities and their session hook."""

import numpy as np
import pytest

from repro.core import SessionConfig, run_session
from repro.data import synthetic_blobs
from repro.fl.privacy import (
    GaussianMechanism,
    PrivacyAccountant,
    clip_to_norm,
    gaussian_sigma,
)
from repro.nn import mlp_classifier

RNG = lambda seed=0: np.random.default_rng(seed)


class TestClipping:
    def test_small_vector_unchanged(self):
        w = np.array([1.0, 2.0])
        np.testing.assert_array_equal(clip_to_norm(w, 10.0), w)

    def test_large_vector_scaled_to_norm(self):
        w = np.array([30.0, 40.0])  # norm 50
        out = clip_to_norm(w, 5.0)
        assert np.linalg.norm(out) == pytest.approx(5.0)
        np.testing.assert_allclose(out, [3.0, 4.0])

    def test_does_not_mutate_input(self):
        w = np.array([30.0, 40.0])
        clip_to_norm(w, 1.0)
        np.testing.assert_array_equal(w, [30.0, 40.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            clip_to_norm(np.ones(2), 0.0)


class TestSigma:
    def test_calibration_formula(self):
        sigma = gaussian_sigma(epsilon=1.0, delta=1e-5, sensitivity=2.0)
        expected = 2.0 * np.sqrt(2 * np.log(1.25 / 1e-5))
        assert sigma == pytest.approx(expected)

    def test_noise_shrinks_with_epsilon(self):
        lo = gaussian_sigma(0.5, 1e-5, 1.0)
        hi = gaussian_sigma(5.0, 1e-5, 1.0)
        assert hi < lo

    def test_validation(self):
        with pytest.raises(ValueError):
            gaussian_sigma(0.0, 1e-5, 1.0)
        with pytest.raises(ValueError):
            gaussian_sigma(1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            gaussian_sigma(1.0, 1e-5, 0.0)


class TestMechanism:
    def test_privatize_adds_noise_and_charges_ledger(self):
        mech = GaussianMechanism(1.0, 1e-5, clip_norm=5.0, rng=RNG(0))
        w = np.ones(100)
        out = mech.privatize(w)
        assert not np.array_equal(out, w)
        assert mech.accountant.steps == 1
        assert mech.accountant.epsilon_spent == 1.0

    def test_noise_scale_statistics(self):
        mech = GaussianMechanism(1.0, 1e-5, clip_norm=1.0, rng=RNG(1))
        out = mech.privatize(np.zeros(200_000))
        assert np.std(out) == pytest.approx(mech.sigma, rel=0.02)

    def test_accountant_composes(self):
        acc = PrivacyAccountant()
        acc.spend(0.5, 1e-6)
        acc.spend(0.5, 1e-6)
        assert acc.epsilon_spent == 1.0
        assert acc.delta_spent == pytest.approx(2e-6)
        assert acc.steps == 2


class TestSessionIntegration:
    def _dataset(self):
        return synthetic_blobs(
            n_train=300, n_test=80, n_features=6, rng=RNG(0), separation=3.0
        )

    def _factory(self):
        return lambda rng: mlp_classifier(6, rng=rng, hidden=(8,))

    def test_dp_session_runs(self):
        cfg = SessionConfig(
            n_peers=4, rounds=3, group_size=2, lr=1e-2, seed=1,
            dp_epsilon=5.0, dp_clip_norm=20.0,
        )
        history = run_session(self._factory(), self._dataset(), cfg)
        assert len(history) == 3
        assert np.isfinite(history.accuracy).all()

    def test_heavy_noise_hurts_accuracy(self):
        base = SessionConfig(n_peers=4, rounds=8, group_size=2, lr=1e-2, seed=2)
        noisy = SessionConfig(
            n_peers=4, rounds=8, group_size=2, lr=1e-2, seed=2,
            dp_epsilon=0.01, dp_clip_norm=1.0,
        )
        clean_acc = run_session(self._factory(), self._dataset(), base)
        noisy_acc = run_session(self._factory(), self._dataset(), noisy)
        assert noisy_acc.final_accuracy() < clean_acc.final_accuracy()
