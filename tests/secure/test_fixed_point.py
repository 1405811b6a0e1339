"""Tests for fixed-point ring sharing (the information-theoretic variant)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.secure.fixed_point import (
    decode_fixed_point,
    divide_ring,
    encode_fixed_point,
    sac_average_fixed_point,
)

RNG = lambda seed=0: np.random.default_rng(seed)


class TestEncoding:
    def test_roundtrip_exact_for_representable(self):
        w = np.array([1.0, -2.5, 0.0, 0.015625])
        q = encode_fixed_point(w, frac_bits=10)
        np.testing.assert_array_equal(decode_fixed_point(q, frac_bits=10), w)

    def test_quantization_error_bounded(self):
        w = RNG(0).normal(size=1000)
        q = encode_fixed_point(w, frac_bits=24)
        err = np.abs(decode_fixed_point(q, frac_bits=24) - w)
        assert err.max() <= 2.0**-25 + 1e-12

    def test_negative_values_twos_complement(self):
        q = encode_fixed_point(np.array([-1.0]), frac_bits=8)
        assert q[0] > 2**63  # upper half of the ring
        assert decode_fixed_point(q, frac_bits=8)[0] == -1.0

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            encode_fixed_point(np.array([1e30]), frac_bits=40)

    @given(
        seed=st.integers(0, 2**31 - 1),
        frac=st.sampled_from([8, 24, 40, 61]),
        scale=st.sampled_from([1.0, 1e3, 1e6]),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_roundtrip_or_overflow(self, seed, frac, scale):
        """Any representable value survives encode/decode exactly; values
        past the 2^62 headroom raise instead of wrapping silently."""
        w = np.random.default_rng(seed).normal(scale=scale, size=16)
        if np.any(np.abs(np.rint(w * 2.0**frac)) >= 2.0**62):
            with pytest.raises(OverflowError):
                encode_fixed_point(w, frac)
        else:
            q = encode_fixed_point(w, frac)
            back = decode_fixed_point(q, frac)
            np.testing.assert_array_equal(
                back, np.rint(w * 2.0**frac) / 2.0**frac
            )

    def test_encode_output_owns_contiguous_memory(self):
        """The .view-based encode must still return a safely writable
        uint64 array (no aliasing of the caller's input)."""
        w = np.array([1.0, -2.0, 3.5])
        q = encode_fixed_point(w, frac_bits=8)
        assert q.dtype == np.uint64
        assert q.flags.owndata or q.base is not w
        q += np.uint64(1)  # must not touch w
        np.testing.assert_array_equal(w, [1.0, -2.0, 3.5])

    def test_frac_bits_validation(self):
        with pytest.raises(ValueError):
            encode_fixed_point(np.ones(2), frac_bits=0)
        with pytest.raises(ValueError):
            decode_fixed_point(np.ones(2, dtype=np.uint64), frac_bits=80)


class TestRingShares:
    def test_shares_reconstruct(self):
        q = encode_fixed_point(RNG(1).normal(size=20), 24)
        shares = divide_ring(q, 5, RNG(2))
        np.testing.assert_array_equal(shares.sum(axis=0, dtype=np.uint64), q)

    def test_single_share(self):
        q = np.array([7], dtype=np.uint64)
        np.testing.assert_array_equal(divide_ring(q, 1, RNG())[0], q)

    def test_mask_shares_independent_of_secret(self):
        """First n-1 shares are identical for different secrets under the
        same RNG stream — they carry zero information about the secret."""
        q1 = encode_fixed_point(np.zeros(16), 24)
        q2 = encode_fixed_point(np.full(16, 123.456), 24)
        s1 = divide_ring(q1, 4, RNG(3))
        s2 = divide_ring(q2, 4, RNG(3))
        np.testing.assert_array_equal(s1[:-1], s2[:-1])

    def test_shares_cover_full_ring(self):
        """Random shares hit both halves of the 64-bit ring (unlike the
        paper's Alg. 1, whose shares track the secret's sign)."""
        q = encode_fixed_point(np.full(4000, 0.001), 24)  # tiny positive secret
        shares = divide_ring(q, 2, RNG(4))
        top_half = np.mean(shares[0] > 2**63)
        assert 0.4 < top_half < 0.6

    def test_validation(self):
        with pytest.raises(ValueError):
            divide_ring(np.ones(2, dtype=np.uint64), 0, RNG())

    @given(
        n=st.integers(1, 10),
        seed=st.integers(0, 2**31 - 1),
        frac=st.sampled_from([10, 24, 40]),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_ring_reconstruction(self, n, seed, frac):
        rng = np.random.default_rng(seed)
        w = rng.normal(scale=100.0, size=8)
        q = encode_fixed_point(w, frac)
        shares = divide_ring(q, n, rng)
        np.testing.assert_array_equal(shares.sum(axis=0, dtype=np.uint64), q)


class TestFixedPointSac:
    def test_average_close_to_true_mean(self):
        models = [RNG(i).normal(size=50) for i in range(5)]
        avg = sac_average_fixed_point(models, RNG(9), frac_bits=24)
        np.testing.assert_allclose(avg, np.mean(models, axis=0), atol=1e-6)

    def test_quantization_error_scales_with_frac_bits(self):
        models = [RNG(i).normal(size=200) for i in range(4)]
        true = np.mean(models, axis=0)
        coarse = sac_average_fixed_point(models, RNG(1), frac_bits=8)
        fine = sac_average_fixed_point(models, RNG(1), frac_bits=30)
        assert np.abs(fine - true).max() < np.abs(coarse - true).max()

    def test_single_peer(self):
        m = RNG(2).normal(size=10)
        avg = sac_average_fixed_point([m], RNG(3))
        np.testing.assert_allclose(avg, m, atol=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            sac_average_fixed_point([], RNG())
        with pytest.raises(ValueError):
            sac_average_fixed_point([np.ones(2), np.ones(3)], RNG())
