"""Seed-compressed shares: expansion determinism, reconstruction, wiring.

Property-tests the tentpole guarantee: seed-expanded shares reconstruct
bit-identically to their materialized form for both the float and the
fixed-point ring codec, across dtypes, shapes, and the paper's (k, n)
settings; plus the FT-SAC dropout-recovery regression under the seed
codec.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import seeded_exchange_bits
from repro.experiments.paper_settings import FIG6_7, HEADLINES
from repro.secure.fixed_point import encode_fixed_point, sac_average_fixed_point
from repro.secure.protocol import run_sac_protocol, sac_reference_average
from repro.secure.replicated import seeded_exchange_entry_counts
from repro.secure.seedshare import (
    FLOAT_CODEC,
    RING_CODEC,
    SEED_SHARE_BITS,
    SeedShare,
    draw_seed,
    seeded_ring_shares,
    seeded_zero_sum_shares,
)

RNG = lambda seed=0: np.random.default_rng(seed)

#: the paper's (k, n) operating points — Fig. 14's headline ratios plus
#: n-out-of-n at each Fig. 6/7 subgroup size.
PAPER_KN = sorted(
    {
        tuple(int(p) for p in key.split("_")[2:4])
        for key in HEADLINES
        if key.startswith("fig14_ratio_")
    }
    | {(n, n) for n in FIG6_7.group_sizes}
)


class TestSeedShare:
    def test_expansion_deterministic(self):
        share = SeedShare(draw_seed(RNG(0)), (17, 3))
        np.testing.assert_array_equal(share.expand(), share.expand())

    def test_ring_expansion_deterministic(self):
        share = SeedShare(draw_seed(RNG(1)), (64,), codec=RING_CODEC)
        a, b = share.expand(), share.expand()
        assert a.dtype == np.uint64
        np.testing.assert_array_equal(a, b)

    def test_distinct_seeds_distinct_masks(self):
        rng = RNG(2)
        a = SeedShare(draw_seed(rng), (100,)).expand()
        b = SeedShare(draw_seed(rng), (100,)).expand()
        assert not np.array_equal(a, b)

    def test_size_bits_independent_of_shape(self):
        small = SeedShare(draw_seed(RNG(3)), (2,))
        large = SeedShare(draw_seed(RNG(3)), (100, 100, 10))
        assert small.size_bits() == large.size_bits() == SEED_SHARE_BITS

    def test_validation(self):
        with pytest.raises(ValueError):
            SeedShare(0, (2,), codec="no-such-codec")
        with pytest.raises(ValueError):
            SeedShare(2**128, (2,))  # does not fit the Philox key
        with pytest.raises(ValueError):
            seeded_zero_sum_shares(np.ones(3), 0, RNG())
        with pytest.raises(ValueError):
            seeded_zero_sum_shares(np.ones(3), 3, RNG(), residual_index=3)


class TestSeededSplits:
    @given(
        n=st.integers(1, 8),
        seed=st.integers(0, 2**31 - 1),
        size=st.integers(1, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_float_shares_sum_to_secret(self, n, seed, size):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=size)
        ss = seeded_zero_sum_shares(w, n, rng)
        np.testing.assert_allclose(
            ss.materialize().sum(axis=0), w, atol=1e-9 * max(1, n)
        )

    @given(
        n=st.integers(1, 8),
        seed=st.integers(0, 2**31 - 1),
        size=st.integers(1, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_ring_shares_sum_exactly(self, n, seed, size):
        rng = np.random.default_rng(seed)
        q = encode_fixed_point(rng.normal(scale=10.0, size=size), 24)
        ss = seeded_ring_shares(q, n, rng)
        np.testing.assert_array_equal(
            ss.materialize().sum(axis=0, dtype=np.uint64), q
        )

    @given(
        n=st.integers(2, 6),
        seed=st.integers(0, 2**31 - 1),
        codec=st.sampled_from([FLOAT_CODEC, RING_CODEC]),
    )
    @settings(max_examples=60, deadline=None)
    def test_expanded_equals_materialized_bitwise(self, n, seed, codec):
        """The tentpole invariant: a recipient expanding a seed gets the
        *same* array the sender would have shipped dense."""
        rng = np.random.default_rng(seed)
        if codec == FLOAT_CODEC:
            secret = rng.normal(size=23)
            ss = seeded_zero_sum_shares(secret, n, rng)
        else:
            secret = encode_fixed_point(rng.normal(size=23), 24)
            ss = seeded_ring_shares(secret, n, rng)
        dense = ss.materialize()
        for j in range(n):
            np.testing.assert_array_equal(dense[j], ss.expand(j))
            payload = ss.share(j)
            if j == ss.residual_index:
                np.testing.assert_array_equal(payload, dense[j])
            else:
                np.testing.assert_array_equal(payload.expand(), dense[j])

    @pytest.mark.parametrize("shape", [(7,), (3, 5), (2, 3, 4)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_shapes_and_dtypes(self, shape, dtype):
        w = RNG(5).normal(size=shape).astype(dtype)
        ss = seeded_zero_sum_shares(w, 4, RNG(6))
        assert ss.materialize().shape == (4,) + shape
        np.testing.assert_allclose(
            ss.materialize().sum(axis=0), np.asarray(w, np.float64),
            atol=1e-6,
        )

    def test_residual_index_placement(self):
        w = RNG(7).normal(size=9)
        ss = seeded_zero_sum_shares(w, 5, RNG(8), residual_index=2)
        assert ss.residual_index == 2
        assert 2 not in ss.seeds
        assert set(ss.seeds) == {0, 1, 3, 4}

    def test_single_share_is_the_secret(self):
        w = RNG(9).normal(size=6)
        ss = seeded_zero_sum_shares(w, 1, RNG(10))
        np.testing.assert_array_equal(ss.materialize()[0], w)


class TestEntryCounts:
    @pytest.mark.parametrize("k,n", PAPER_KN)
    def test_counts_match_bundle_totals(self, k, n):
        dense, seeds = seeded_exchange_entry_counts(n, k)
        assert dense == n - k
        assert dense + seeds == (n - 1) * (n - k + 1)

    def test_n_out_of_n_is_pure_seeds(self):
        for n in FIG6_7.group_sizes:
            assert seeded_exchange_entry_counts(n, n) == (0, n - 1)


class TestCodecEquivalence:
    @pytest.mark.parametrize("k,n", PAPER_KN)
    def test_ftsac_average_matches_dense(self, k, n):
        models = [RNG(i).normal(size=64) for i in range(n)]
        dense = run_sac_protocol(models, k=k, seed=20)
        seed = run_sac_protocol(models, k=k, seed=21, share_codec="seed")
        np.testing.assert_allclose(dense.average, seed.average, atol=1e-9)
        # Seeded exchange plus the (k-1) dense subtotals.
        assert seed.bits_sent == seeded_exchange_bits(n, k, 64) + (k - 1) * 64 * 32
        assert seed.bits_sent < dense.bits_sent

    def test_seed_and_seed_dense_bit_identical(self):
        """Same seed-derived masks, different wire form: the averages
        must be *bitwise* equal (same arrays, same summation order)."""
        models = [RNG(i).normal(size=128) for i in range(5)]
        a = sac_reference_average(models, seed=30, share_codec="seed")
        b = sac_reference_average(models, seed=30, share_codec="seed-dense")
        np.testing.assert_array_equal(a, b)

    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_fixed_point_bit_identical_across_codecs(self, seed, n):
        """Ring masks cancel exactly mod 2^64, so the decoded average is
        bit-identical no matter which codec produced the shares."""
        rng = np.random.default_rng(seed)
        models = [rng.normal(size=31) for _ in range(n)]
        dense = sac_average_fixed_point(models, np.random.default_rng(1))
        seeded = sac_average_fixed_point(
            models, np.random.default_rng(2), share_codec="seed"
        )
        np.testing.assert_array_equal(dense, seeded)

    def test_protocol_seed_vs_seed_dense_bit_identical(self):
        models = [RNG(i).normal(size=96) for i in range(4)]
        a = run_sac_protocol(models, k=3, share_codec="seed")
        b = run_sac_protocol(models, k=3, share_codec="seed-dense")
        assert a.outcome.ok and b.outcome.ok
        np.testing.assert_array_equal(a.average, b.average)
        assert a.bits_sent < b.bits_sent


class TestDropoutRecovery:
    def test_ftsac_forced_recovery_under_seed_codec(self):
        """Alg. 4 lines 17-18 regression: crash a primary subtotal
        sender mid-round and require the replica fetch to reconstruct
        the exact all-peers average under the seed codec."""
        n, k = 5, 3
        models = [RNG(i).normal(size=200) for i in range(n)]
        result = run_sac_protocol(
            models, k=k, crash_at={4: 20.0}, share_codec="seed"
        )
        assert result.outcome.ok
        assert result.recovered_shares == (4,)
        np.testing.assert_allclose(
            result.average, np.mean(models, axis=0), atol=1e-9
        )
