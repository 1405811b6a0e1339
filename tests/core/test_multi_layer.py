"""Tests for the X-layer aggregation of Sec. VII-C."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    MultiLayerTopology,
    multi_layer_aggregate,
    multi_layer_cost_bits,
    multi_layer_message_count,
)
from repro.core.costs import multi_layer_groups_at, multi_layer_total_peers

RNG = lambda seed=0: np.random.default_rng(seed)


class TestTopology:
    def test_peer_count_matches_eq6(self):
        for n in (2, 3, 4):
            for depth in (1, 2, 3):
                topo = MultiLayerTopology(n, depth)
                assert topo.n_peers == multi_layer_total_peers(n, depth)

    def test_depth1_single_group(self):
        topo = MultiLayerTopology(3, 1)
        assert topo.n_groups == 1
        assert topo.member_matrix(1).tolist() == [[0, 1, 2]]

    def test_group_count_matches_paper(self):
        # Number of aggregations: sum_{k=1}^{X-1} n(n-1)^{k-1} + 1.
        for n in (3, 4):
            for depth in (1, 2, 3):
                topo = MultiLayerTopology(n, depth)
                expected = 1 + sum(
                    n * (n - 1) ** (k - 1) for k in range(1, depth)
                )
                assert topo.n_groups == expected

    def test_leader_structure_matches_paper(self):
        """Sec. VII-C: a follower of layer x leads one layer-x+1 group;
        nobody leads in two layers except the topmost leader, who also
        leads a second-layer group."""
        topo = MultiLayerTopology(3, 3)
        top, layer2, layer3 = (topo.member_matrix(k) for k in (1, 2, 3))
        # Layer-2 leaders are exactly the members of the top group.
        assert set(layer2[:, 0]) == set(top[0])
        # Layer-3 leaders are exactly the layer-2 followers (new peers).
        assert sorted(layer3[:, 0]) == sorted(layer2[:, 1:].ravel())
        # No peer leads more than two groups, and only peer 0 (top leader)
        # leads two.
        from collections import Counter

        lead_counts = Counter(
            int(leader) for mat in (top, layer2, layer3) for leader in mat[:, 0]
        )
        assert lead_counts[0] == 2
        assert all(c == 1 for p, c in lead_counts.items() if p != 0)

    def test_all_groups_have_n_members(self):
        topo = MultiLayerTopology(4, 3)
        rows = sum(len(topo.member_matrix(k)) for k in (1, 2, 3))
        assert rows == topo.n_groups
        assert all(topo.member_matrix(k).shape[1] == 4 for k in (1, 2, 3))

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiLayerTopology(1, 2)
        with pytest.raises(ValueError):
            MultiLayerTopology(3, 0)


class TestAggregate:
    def test_equals_global_mean(self):
        for n, depth in [(3, 2), (3, 3), (4, 2), (2, 4)]:
            topo = MultiLayerTopology(n, depth)
            rng = RNG(1)
            models = [rng.normal(size=6) for _ in range(topo.n_peers)]
            result = multi_layer_aggregate(topo, models, rng)
            np.testing.assert_allclose(
                result.average, np.mean(models, axis=0), rtol=1e-9
            )

    def test_measured_cost_matches_eq10(self):
        for n, depth in [(3, 2), (3, 3), (4, 2), (5, 2)]:
            topo = MultiLayerTopology(n, depth)
            rng = RNG(2)
            models = [rng.normal(size=20) for _ in range(topo.n_peers)]
            result = multi_layer_aggregate(topo, models, rng)
            assert result.bits_sent == multi_layer_cost_bits(n, depth, 20)

    def test_aggregation_count(self):
        topo = MultiLayerTopology(3, 3)
        rng = RNG(3)
        models = [rng.normal(size=4) for _ in range(topo.n_peers)]
        result = multi_layer_aggregate(topo, models, rng)
        assert result.n_aggregations == topo.n_groups

    def test_wrong_model_count_rejected(self):
        topo = MultiLayerTopology(3, 2)
        with pytest.raises(ValueError):
            multi_layer_aggregate(topo, [np.ones(3)] * 5, RNG())

    def test_depth1_is_plain_sac_mean(self):
        topo = MultiLayerTopology(4, 1)
        rng = RNG(4)
        models = [rng.normal(size=5) for _ in range(4)]
        result = multi_layer_aggregate(topo, models, rng)
        np.testing.assert_allclose(result.average, np.mean(models, axis=0))


class TestDeepTrees:
    """Depth >= 4 trees: the regime the X-layer wire round scales to."""

    def test_deep_tree_mean_and_cost(self):
        for n, depth in [(2, 6), (3, 5), (4, 4)]:
            topo = MultiLayerTopology(n, depth)
            rng = RNG(11)
            models = [rng.normal(size=3) for _ in range(topo.n_peers)]
            result = multi_layer_aggregate(topo, models, rng)
            np.testing.assert_allclose(
                result.average, np.mean(models, axis=0), rtol=1e-9
            )
            assert result.bits_sent == multi_layer_cost_bits(n, depth, 3)

    def test_member_matrix_matches_groups(self):
        topo = MultiLayerTopology(3, 4)
        seen = []
        for layer in range(1, 5):
            mat = topo.member_matrix(layer)
            assert mat.shape == (multi_layer_groups_at(3, layer), 3)
            assert mat.dtype == np.int64
            seen.extend(mat[:, 1:].ravel())
            # Cached: same object on repeat calls.
            assert topo.member_matrix(layer) is mat
        # Every peer but the root follows in exactly one group.
        assert sorted(seen) == list(range(1, topo.n_peers))

    def test_closed_form_matches_constructive_build(self):
        """The arithmetic ``member_matrix`` against the paper's
        construction done literally: walk the layers, give every
        eligible leader the next ``n - 1`` fresh ids."""
        for n in range(2, 7):
            for depth in range(1, 8):
                layers = [[tuple(range(n))]]
                next_id, eligible = n, list(range(n))
                for _ in range(2, depth + 1):
                    groups, new_peers = [], []
                    for leader in eligible:
                        followers = range(next_id, next_id + n - 1)
                        next_id += n - 1
                        groups.append((leader, *followers))
                        new_peers.extend(followers)
                    layers.append(groups)
                    eligible = new_peers
                topo = MultiLayerTopology(n, depth)
                assert topo.n_peers == next_id
                assert topo.n_groups == sum(len(g) for g in layers)
                for layer, groups in enumerate(layers, start=1):
                    mat = topo.member_matrix(layer)
                    assert mat.dtype == np.int64
                    np.testing.assert_array_equal(mat, np.array(groups))

    def test_layer_out_of_range_rejected(self):
        topo = MultiLayerTopology(3, 2)
        for layer in (0, 3):
            with pytest.raises(ValueError):
                topo.member_matrix(layer)

    def test_groups_at_matches_closed_form(self):
        topo = MultiLayerTopology(3, 5)
        for layer in range(1, 6):
            assert len(topo.member_matrix(layer)) == multi_layer_groups_at(3, layer)


class TestMessageCount:
    """Eq. 10 as a message count: every message carries ``|w|``."""

    def test_message_count_times_w_is_eq10(self):
        for n, depth in [(2, 5), (3, 4), (4, 3)]:
            assert multi_layer_message_count(n, depth) * 13 * 32 == (
                multi_layer_cost_bits(n, depth, 13)
            )

    @given(
        n=st.integers(2, 4),
        depth=st.integers(1, 5),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_measured_bits_match_message_count(self, n, depth, seed):
        """Property: for any tree shape the measured wire bits equal the
        closed form exactly (no tolerance)."""
        topo = MultiLayerTopology(n, depth)
        rng = RNG(seed)
        models = [rng.normal(size=2) for _ in range(topo.n_peers)]
        result = multi_layer_aggregate(topo, models, rng)
        assert result.bits_sent == multi_layer_message_count(n, depth) * 2 * 32
