"""Tests for functional SAC (Alg. 2) and its cost accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.secure import SacAbort, sac_average


def make_models(n, size=16, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=size) for _ in range(n)]


class TestSacAverage:
    def test_equals_plain_mean(self):
        models = make_models(5)
        result = sac_average(models, np.random.default_rng(1))
        np.testing.assert_allclose(
            result.average, np.mean(models, axis=0), rtol=1e-10
        )

    def test_cost_matches_closed_form(self):
        """Measured cost must equal 2 N (N-1) |w| (Sec. III-B)."""
        for n in (2, 3, 5, 10):
            models = make_models(n, size=100)
            result = sac_average(models, np.random.default_rng(0))
            expected_bits = 2 * n * (n - 1) * 100 * 32
            assert result.bits_sent == expected_bits
            assert result.messages_sent == 2 * n * (n - 1)

    def test_single_peer(self):
        models = make_models(1)
        result = sac_average(models, np.random.default_rng(0))
        np.testing.assert_allclose(result.average, models[0])
        assert result.bits_sent == 0

    def test_matrix_models(self):
        rng = np.random.default_rng(2)
        models = [rng.normal(size=(4, 4)) for _ in range(3)]
        result = sac_average(models, rng)
        np.testing.assert_allclose(result.average, np.mean(models, axis=0))

    def test_dropout_aborts(self):
        """Plain SAC must abort on any dropout (paper Sec. IV-C)."""
        models = make_models(4)
        with pytest.raises(SacAbort) as exc:
            sac_average(models, np.random.default_rng(0), crashed={2})
        assert exc.value.crashed == frozenset({2})

    def test_crashed_out_of_range(self):
        with pytest.raises(ValueError):
            sac_average(make_models(3), np.random.default_rng(0), crashed={9})

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            sac_average([np.ones(3), np.ones(4)], np.random.default_rng(0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sac_average([], np.random.default_rng(0))

    def test_gigabits_property(self):
        models = make_models(10, size=1_000_000 // 4)
        result = sac_average(models, np.random.default_rng(0))
        assert result.gigabits == pytest.approx(result.bits_sent / 1e9)

    @given(
        n=st.integers(1, 8),
        size=st.integers(1, 20),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_sac_equals_mean(self, n, size, seed):
        rng = np.random.default_rng(seed)
        models = [rng.normal(size=size) for _ in range(n)]
        result = sac_average(models, rng)
        np.testing.assert_allclose(
            result.average, np.mean(models, axis=0), rtol=1e-8, atol=1e-8
        )
