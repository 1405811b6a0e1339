"""Tests for fault-tolerant k-out-of-n SAC (paper Alg. 4)."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.secure import SacReconstructionError, fault_tolerant_sac
from repro.secure.fault_tolerant import expected_ft_sac_bits
from repro.secure.replicated import missing_shares


def make_models(n, size=12, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=size) for _ in range(n)]


class TestFailureFree:
    def test_equals_plain_mean(self):
        models = make_models(5)
        result = fault_tolerant_sac(models, k=3, rng=np.random.default_rng(1))
        np.testing.assert_allclose(
            result.average, np.mean(models, axis=0), rtol=1e-10
        )

    def test_cost_matches_closed_form(self):
        """Measured bits == {n(n-1)(n-k+1) + (k-1)} |w| (Sec. VII-B)."""
        for n, k in [(3, 2), (3, 3), (5, 3), (5, 5), (7, 4)]:
            models = make_models(n, size=50)
            result = fault_tolerant_sac(models, k=k, rng=np.random.default_rng(0))
            assert result.bits_sent == expected_ft_sac_bits(n, k, 50)

    def test_n_out_of_n_cost_reduces_to_sac_shape(self):
        # k=n: share exchange n(n-1) plus (n-1) subtotals to the leader.
        n = 6
        models = make_models(n, size=10)
        result = fault_tolerant_sac(models, k=n, rng=np.random.default_rng(0))
        assert result.bits_sent == (n * (n - 1) + (n - 1)) * 10 * 32

    def test_leader_choice_does_not_change_average(self):
        models = make_models(5)
        results = [
            fault_tolerant_sac(
                models, k=3, rng=np.random.default_rng(7), leader=ldr
            ).average
            for ldr in range(5)
        ]
        for r in results[1:]:
            np.testing.assert_allclose(r, results[0], rtol=1e-10)


class TestDropouts:
    def test_2_out_of_3_with_one_dropout(self):
        """The Fig. 3 scenario: Alice drops mid-round, average still exact."""
        models = make_models(3)
        result = fault_tolerant_sac(
            models, k=2, rng=np.random.default_rng(0), leader=1, crashed={0}
        )
        np.testing.assert_allclose(
            result.average, np.mean(models, axis=0), rtol=1e-10
        )
        assert result.crashed == frozenset({0})

    def test_average_includes_crashed_peers_model(self):
        """Unlike restart-based SAC, the crashed peer's model is counted."""
        models = [np.full(4, 100.0), np.zeros(4), np.zeros(4)]
        result = fault_tolerant_sac(
            models, k=2, rng=np.random.default_rng(0), leader=1, crashed={0}
        )
        np.testing.assert_allclose(result.average, np.full(4, 100.0 / 3))

    def test_all_tolerable_crash_sets_reconstruct(self):
        n, k = 5, 3
        models = make_models(n)
        expected = np.mean(models, axis=0)
        for crash_set in combinations(range(n), n - k):
            leaders = [p for p in range(n) if p not in crash_set]
            result = fault_tolerant_sac(
                models,
                k=k,
                rng=np.random.default_rng(0),
                leader=leaders[0],
                crashed=set(crash_set),
            )
            np.testing.assert_allclose(result.average, expected, rtol=1e-9)

    def test_fatal_crash_set_raises(self):
        n, k = 5, 3
        models = make_models(n)
        fatal = next(
            set(c)
            for c in combinations(range(n), n - k + 1)
            if missing_shares(set(c), n, k)
        )
        leader = next(p for p in range(n) if p not in fatal)
        with pytest.raises(SacReconstructionError):
            fault_tolerant_sac(
                models, k=k, rng=np.random.default_rng(0), leader=leader,
                crashed=fatal,
            )

    def test_recovered_shares_reported(self):
        models = make_models(3)
        result = fault_tolerant_sac(
            models, k=2, rng=np.random.default_rng(0), leader=1, crashed={0}
        )
        # Leader 1 holds shares {1, 2}; share 0's primary (peer 0) crashed,
        # so subtotal 0 must have been recovered from a replica holder.
        assert result.recovered_shares == (0,)

    def test_recovery_does_not_change_cost_bits(self):
        # Recovery redirects the (k-1) subtotal messages, it does not add
        # model-sized payloads.
        models = make_models(5, size=20)
        clean = fault_tolerant_sac(models, k=3, rng=np.random.default_rng(0))
        dirty = fault_tolerant_sac(
            models, k=3, rng=np.random.default_rng(0), leader=2, crashed={0, 1}
        )
        assert clean.bits_sent == dirty.bits_sent


class TestValidation:
    def test_crashed_leader_rejected(self):
        with pytest.raises(ValueError, match="leader"):
            fault_tolerant_sac(
                make_models(3), k=2, rng=np.random.default_rng(0),
                leader=0, crashed={0},
            )

    def test_bad_k(self):
        with pytest.raises(ValueError):
            fault_tolerant_sac(make_models(3), k=0, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            fault_tolerant_sac(make_models(3), k=4, rng=np.random.default_rng(0))

    def test_bad_leader(self):
        with pytest.raises(ValueError):
            fault_tolerant_sac(
                make_models(3), k=2, rng=np.random.default_rng(0), leader=5
            )

    def test_bad_crashed_ids(self):
        with pytest.raises(ValueError):
            fault_tolerant_sac(
                make_models(3), k=2, rng=np.random.default_rng(0), crashed={7}
            )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fault_tolerant_sac(
                [np.ones(2), np.ones(3)], k=1, rng=np.random.default_rng(0)
            )


class TestProperties:
    @given(
        n=st.integers(2, 8),
        data=st.data(),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_exact_average_under_tolerable_dropout(
        self, n, data, seed
    ):
        k = data.draw(st.integers(1, n))
        crashed = set(
            data.draw(
                st.lists(st.integers(0, n - 1), max_size=n - k, unique=True)
            )
        )
        alive = sorted(set(range(n)) - crashed)
        leader = data.draw(st.sampled_from(alive))
        rng = np.random.default_rng(seed)
        models = [rng.normal(size=6) for _ in range(n)]
        result = fault_tolerant_sac(
            models, k=k, rng=rng, leader=leader, crashed=crashed
        )
        np.testing.assert_allclose(
            result.average, np.mean(models, axis=0), rtol=1e-8, atol=1e-8
        )
