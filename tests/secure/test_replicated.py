"""Tests for k-out-of-n replicated share placement (Alg. 4 combinatorics)."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.secure.replicated import holders_of_share, missing_shares, shares_held_by


def recovers(crashed, n, k):
    return not missing_shares(set(crashed), n, k)


class TestPlacement:
    def test_peer_holds_consecutive_indices(self):
        # n=5, k=3: peer 0 holds 0,1,2 (n-k+1 = 3 consecutive indices).
        assert shares_held_by(0, 5, 3) == [0, 1, 2]
        assert shares_held_by(3, 5, 3) == [3, 4, 0]

    def test_n_out_of_n_degenerates_to_one_share_each(self):
        for peer in range(4):
            assert shares_held_by(peer, 4, 4) == [peer]

    def test_one_out_of_n_gives_everyone_everything(self):
        for peer in range(4):
            assert sorted(shares_held_by(peer, 4, 1)) == [0, 1, 2, 3]

    def test_holders_inverse_of_held(self):
        n, k = 7, 4
        for share in range(n):
            for holder in holders_of_share(share, n, k):
                assert share in shares_held_by(holder, n, k)

    def test_replica_group_size(self):
        for n in range(1, 9):
            for k in range(1, n + 1):
                for s in range(n):
                    assert len(holders_of_share(s, n, k)) == n - k + 1

    def test_assignment_covers_all_shares(self):
        covered = set()
        for peer in range(6):
            covered.update(shares_held_by(peer, 6, 4))
        assert covered == set(range(6))

    def test_validation(self):
        with pytest.raises(ValueError):
            shares_held_by(0, 3, 0)
        with pytest.raises(ValueError):
            shares_held_by(0, 3, 4)
        with pytest.raises(ValueError):
            shares_held_by(5, 3, 2)
        with pytest.raises(ValueError):
            holders_of_share(-1, 3, 2)


class TestRecoverability:
    def test_tolerates_up_to_n_minus_k_arbitrary_crashes(self):
        """Paper claim: aggregation operational as long as k of n are alive."""
        for n in range(2, 8):
            for k in range(1, n + 1):
                f = n - k
                for crash_set in combinations(range(n), f):
                    assert recovers(crash_set, n, k), (n, k, crash_set)

    def test_worst_case_bound_is_exactly_n_minus_k(self):
        # Every n-k crash set recovers (above); some n-k+1 crash set fails.
        for n in range(2, 8):
            for k in range(2, n + 1):
                assert not all(
                    recovers(c, n, k) for c in combinations(range(n), n - k + 1)
                ), (n, k)

    def test_some_larger_crash_sets_fail(self):
        # n=5, k=3: crashing 3 consecutive peers loses a share index.
        assert not recovers({0, 1, 2}, 5, 3) or recovers({0, 2, 4}, 5, 3)
        # There must exist at least one fatal crash set of size n-k+1.
        fatal = [
            c for c in combinations(range(5), 3) if not recovers(c, 5, 3)
        ]
        assert fatal

    def test_all_crashed_unrecoverable(self):
        assert missing_shares({0, 1, 2}, 3, 2) == {0, 1, 2}

    def test_missing_shares_consistency(self):
        for crash_set in combinations(range(5), 3):
            miss = missing_shares(set(crash_set), 5, 3)
            # A share is missing exactly when its whole replica group crashed.
            assert miss == {
                s for s in range(5) if set(holders_of_share(s, 5, 3)) <= set(crash_set)
            }

    @given(
        n=st.integers(2, 10),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_k_alive_always_recover(self, n, data):
        k = data.draw(st.integers(1, n))
        crashed = set(
            data.draw(
                st.lists(
                    st.integers(0, n - 1), max_size=n - k, unique=True
                )
            )
        )
        assert recovers(crashed, n, k)
