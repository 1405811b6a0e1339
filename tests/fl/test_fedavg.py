"""Tests for FedAvg aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl import fedavg
from repro.secure import batched
from tests.secure.test_batched import (
    SPLIT_SIZES,
    count_thread_starts,
    cpus_patched,
)


class TestFedAvg:
    def test_uniform_weights_is_mean(self):
        models = [np.ones(4), np.full(4, 3.0)]
        np.testing.assert_allclose(fedavg(models), np.full(4, 2.0))

    def test_weighted_mean(self):
        models = [np.zeros(2), np.ones(2)]
        out = fedavg(models, weights=[1, 3])
        np.testing.assert_allclose(out, np.full(2, 0.75))

    def test_weights_scale_invariant(self):
        rng = np.random.default_rng(0)
        models = [rng.normal(size=5) for _ in range(3)]
        a = fedavg(models, weights=[1, 2, 3])
        b = fedavg(models, weights=[10, 20, 30])
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_single_model_identity(self):
        m = np.array([1.0, 2.0])
        np.testing.assert_allclose(fedavg([m], weights=[5]), m)

    def test_zero_weight_model_ignored(self):
        models = [np.zeros(2), np.full(2, 1e9)]
        np.testing.assert_allclose(fedavg(models, weights=[1, 0]), np.zeros(2))

    def test_validation(self):
        with pytest.raises(ValueError):
            fedavg([])
        with pytest.raises(ValueError):
            fedavg([np.ones(2)], weights=[1, 2])
        with pytest.raises(ValueError):
            fedavg([np.ones(2), np.ones(3)])
        with pytest.raises(ValueError):
            fedavg([np.ones(2)], weights=[-1])
        with pytest.raises(ValueError):
            fedavg([np.ones(2), np.ones(2)], weights=[0, 0])

    @given(
        n=st.integers(1, 10),
        size=st.integers(1, 16),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_convexity(self, n, size, seed):
        """The average lies inside the per-coordinate hull of the models."""
        rng = np.random.default_rng(seed)
        models = [rng.normal(size=size) for _ in range(n)]
        weights = rng.random(n) + 1e-3
        out = fedavg(models, weights=weights)
        stacked = np.stack(models)
        assert (out <= stacked.max(axis=0) + 1e-9).all()
        assert (out >= stacked.min(axis=0) - 1e-9).all()

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_property_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        models = [rng.normal(size=6) for _ in range(5)]
        weights = list(rng.random(5) + 0.1)
        perm = rng.permutation(5)
        a = fedavg(models, weights)
        b = fedavg([models[i] for i in perm], [weights[i] for i in perm])
        np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_two_stage_equals_global_mean(self):
        """The Fig. 6 invariant: grouped SAC + weighted FedAvg == global mean.

        Averaging within subgroups and then FedAvg-ing the subgroup means
        weighted by subgroup size reproduces the mean over all peers —
        this is why two-layer accuracy matches one-layer SAC exactly.
        """
        rng = np.random.default_rng(1)
        models = [rng.normal(size=8) for _ in range(10)]
        groups = [[0, 1, 2], [3, 4, 5], [6, 7, 8, 9]]
        group_means = [np.mean([models[i] for i in g], axis=0) for g in groups]
        sizes = [len(g) for g in groups]
        two_layer = fedavg(group_means, weights=sizes)
        np.testing.assert_allclose(two_layer, np.mean(models, axis=0), rtol=1e-12)


def _fedavg_unblocked(models, weights):
    """``out += model * (w_k / total)`` per model: what the blocks replace."""
    w = np.asarray(weights, dtype=np.float64)
    out = np.zeros_like(np.asarray(models[0], dtype=np.float64))
    for model, wk in zip(models, w):
        out += np.asarray(model) * (wk / w.sum())
    return out


class TestBlockedAccumulation:
    """Same products, same adds, same bits as the one-pass loop."""

    @given(
        # sizes on both sides of the 32,768-element block
        shape=st.sampled_from(
            [(), (0,), (1,), (5,), (32_768,), (32_769,), (70_001,),
             (3, 4), (9, 20_000), (2, 3, 5)]
        ),
        n=st.integers(1, 5),
        dtype=st.sampled_from([np.float64, np.float32, np.int64]),
        strided=st.booleans(),
        zero_weight=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_unblocked_loop(
        self, shape, n, dtype, strided, zero_weight, seed
    ):
        rng = np.random.default_rng(seed)
        models = [(10 * rng.normal(size=shape)).astype(dtype) for _ in range(n)]
        if strided and shape and shape[0] > 1:
            models = [np.concatenate([m, m])[::2] for m in models]
        weights = rng.random(n) + 0.01
        if zero_weight and n > 1:
            weights[rng.integers(n)] = 0.0
        want = _fedavg_unblocked(models, weights)
        got = fedavg(models, weights)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_no_model_sized_temporary(self):
        import tracemalloc

        models = [np.ones(1 << 20) for _ in range(4)]
        # Four spans on any host (32 blocks would start eight on an
        # 8-CPU one, whose scratch alone is the bound).
        with cpus_patched(4):
            tracemalloc.start()
            try:
                fedavg(models)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        # The result, plus a 256 KB scratch block per span.
        assert peak < models[0].nbytes + models[0].nbytes // 4


class TestSplitAccumulation:
    """The row blocks spread over threads: same bits as inline."""

    @pytest.mark.parametrize("d", SPLIT_SIZES)
    def test_split_is_bit_identical_to_inline(self, d):
        rng = np.random.default_rng(d)
        models = list(rng.normal(size=(6, d)))
        weights = rng.random(6) + 0.01
        with cpus_patched(1):
            inline = fedavg(models, weights)
        for cpus in (2, 3, 4):
            with cpus_patched(cpus):
                got = fedavg(models, weights)
            assert got.tobytes() == inline.tobytes()

    def test_split_rows_of_a_matrix(self):
        """2-D models block by rows; the split keeps the bits too."""
        models = list(np.random.default_rng(3).normal(size=(4, 300, 1_000)))
        with cpus_patched(1):
            inline = fedavg(models, [1, 2, 3, 4])
        with cpus_patched(4):
            assert fedavg(models, [1, 2, 3, 4]).tobytes() == inline.tobytes()

    @pytest.mark.parametrize("d,blocks", [
        (1_250_858, 39), (16_384, 1), (8, 1),
    ])
    def test_threads_started(self, monkeypatch, d, blocks):
        models = [np.ones(d)] * 6
        starts = count_thread_starts(monkeypatch)
        for cpus in (batched._CPUS, 4):
            starts.clear()
            with cpus_patched(cpus):
                fedavg(models)
            assert len(starts) == max(0, min(cpus, blocks // 4) - 1)
