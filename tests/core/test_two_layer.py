"""Tests for the two-layer aggregator (paper Alg. 3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Topology, TwoLayerAggregator, two_layer_cost_from_topology
from repro.core.costs import two_layer_ft_cost_from_topology
from repro.secure import SacAbort, expected_ft_sac_bits

RNG = lambda seed=0: np.random.default_rng(seed)


def make_models(n, size=10, seed=0):
    rng = RNG(seed)
    return [rng.normal(size=size) for _ in range(n)]


class TestExactness:
    def test_equals_global_mean(self):
        """The Fig. 6 invariant: two-layer == one-layer == plain mean."""
        models = make_models(10)
        topo = Topology.by_group_size(10, 3)
        agg = TwoLayerAggregator(topo)
        result = agg.aggregate(models, RNG(1))
        np.testing.assert_allclose(
            result.average, np.mean(models, axis=0), rtol=1e-10
        )

    def test_equals_global_mean_with_threshold(self):
        models = make_models(12)
        topo = Topology.by_group_size(12, 4)
        agg = TwoLayerAggregator(topo, k=2)
        result = agg.aggregate(models, RNG(1))
        np.testing.assert_allclose(
            result.average, np.mean(models, axis=0), rtol=1e-10
        )

    def test_single_group_degenerates_to_sac(self):
        models = make_models(5)
        agg = TwoLayerAggregator(Topology.single_group(5))
        result = agg.aggregate(models, RNG(0))
        np.testing.assert_allclose(result.average, np.mean(models, axis=0))

    @given(
        n_peers=st.integers(2, 20),
        data=st.data(),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_two_layer_equals_mean(self, n_peers, data, seed):
        n = data.draw(st.integers(1, n_peers))
        models = make_models(n_peers, size=5, seed=seed)
        topo = Topology.by_group_size(n_peers, n)
        agg = TwoLayerAggregator(topo)
        result = agg.aggregate(models, RNG(seed))
        np.testing.assert_allclose(
            result.average, np.mean(models, axis=0), rtol=1e-8, atol=1e-8
        )


class TestCosts:
    def test_measured_cost_matches_topology_closed_form(self):
        models = make_models(10, size=100)
        topo = Topology.by_group_size(10, 3)
        agg = TwoLayerAggregator(topo)
        result = agg.aggregate(models, RNG(0))
        assert result.bits_sent == two_layer_cost_from_topology(topo, 100)

    def test_measured_ft_cost_matches_closed_form(self):
        models = make_models(15, size=60)
        topo = Topology.by_group_size(15, 5)
        agg = TwoLayerAggregator(topo, k=3)
        result = agg.aggregate(models, RNG(0))
        assert result.bits_sent == two_layer_ft_cost_from_topology(topo, 3, 60)

    def test_cheaper_than_one_layer_sac(self):
        from repro.core import one_layer_sac_cost_bits

        models = make_models(30, size=10)
        topo = Topology.by_group_size(30, 3)
        result = TwoLayerAggregator(topo).aggregate(models, RNG(0))
        assert result.bits_sent < one_layer_sac_cost_bits(30, 10)


class TestFraction:
    def test_partial_participation_averages_those_groups(self):
        models = make_models(20)
        topo = Topology.by_group_size(20, 5)  # 4 groups of 5
        agg = TwoLayerAggregator(topo)
        result = agg.aggregate(models, RNG(0), participating_groups=[0, 2])
        members = [p for gi in (0, 2) for p in topo.groups[gi]]
        expected = np.mean([models[p] for p in members], axis=0)
        np.testing.assert_allclose(result.average, expected, rtol=1e-10)
        assert result.participating_groups == (0, 2)
        assert result.included_peers == tuple(sorted(members))

    def test_empty_participation_rejected(self):
        models = make_models(10)
        agg = TwoLayerAggregator(Topology.by_group_size(10, 5))
        with pytest.raises(ValueError):
            agg.aggregate(models, RNG(0), participating_groups=[])

    def test_out_of_range_group_rejected(self):
        models = make_models(10)
        agg = TwoLayerAggregator(Topology.by_group_size(10, 5))
        with pytest.raises(ValueError):
            agg.aggregate(models, RNG(0), participating_groups=[7])


class TestDropouts:
    def test_plain_mode_drops_whole_group(self):
        """Without k, a dropout aborts that subgroup's SAC (Sec. IV-C)."""
        models = make_models(9)
        topo = Topology.by_group_size(9, 3)
        agg = TwoLayerAggregator(topo)
        crashed_peer = topo.groups[1][1]
        result = agg.aggregate(models, RNG(0), dropouts={1: {crashed_peer}})
        assert 1 in result.failed_groups
        surviving = [p for gi in (0, 2) for p in topo.groups[gi]]
        expected = np.mean([models[p] for p in surviving], axis=0)
        np.testing.assert_allclose(result.average, expected, rtol=1e-10)

    def test_ft_mode_survives_dropout_and_counts_crashed_model(self):
        models = make_models(9)
        topo = Topology.by_group_size(9, 3)
        agg = TwoLayerAggregator(topo, k=2)
        crashed_peer = topo.groups[1][1]
        result = agg.aggregate(models, RNG(0), dropouts={1: {crashed_peer}})
        assert result.failed_groups == ()
        np.testing.assert_allclose(
            result.average, np.mean(models, axis=0), rtol=1e-10
        )

    def test_ft_mode_too_many_dropouts_fails_group(self):
        models = make_models(10)
        topo = Topology.by_group_size(10, 5)  # groups of 5
        agg = TwoLayerAggregator(topo, k=4)  # tolerates 1 dropout
        group1 = topo.groups[1]
        # Crash two followers whose loss is fatal for k=4 (consecutive).
        result = agg.aggregate(
            models, RNG(0), dropouts={1: {group1[1], group1[2]}}
        )
        assert result.failed_groups == (1,)
        # The failed group's share exchange was paid before the loss was
        # detected: n (n-1) (n-k+1) |w| wasted, on top of the surviving
        # group's round and its (n-1) |w| broadcast (m' = 1: no FedAvg hop).
        w = 10 * 32
        assert result.bits_sent == (
            expected_ft_sac_bits(5, 4, 10) + 5 * 4 * 2 * w + 4 * w
        )
        assert result.messages_sent == (5 * 4 + 3) + 5 * 4 + 4

    def test_crashed_leader_fails_group(self):
        models = make_models(9)
        topo = Topology.by_group_size(9, 3)
        agg = TwoLayerAggregator(topo, k=2)
        leader = topo.leaders[0]
        result = agg.aggregate(models, RNG(0), dropouts={0: {leader}})
        assert 0 in result.failed_groups

    def test_all_groups_failing_raises(self):
        models = make_models(4)
        topo = Topology.by_group_size(4, 2)
        agg = TwoLayerAggregator(topo)
        drops = {gi: {topo.groups[gi][1]} for gi in range(topo.n_groups)}
        with pytest.raises(SacAbort):
            agg.aggregate(models, RNG(0), dropouts=drops)

    def test_foreign_dropout_peer_rejected(self):
        models = make_models(9)
        topo = Topology.by_group_size(9, 3)
        agg = TwoLayerAggregator(topo)
        with pytest.raises(ValueError):
            agg.aggregate(models, RNG(0), dropouts={0: {8}})


class TestValidation:
    def test_wrong_model_count(self):
        agg = TwoLayerAggregator(Topology.by_group_size(6, 3))
        with pytest.raises(ValueError):
            agg.aggregate(make_models(5), RNG(0))

    def test_threshold_bounds(self):
        topo = Topology.by_group_size(10, 3)  # smallest group has 3
        with pytest.raises(ValueError):
            TwoLayerAggregator(topo, k=4)
        with pytest.raises(ValueError):
            TwoLayerAggregator(topo, k=0)
        TwoLayerAggregator(topo, k=3)  # boundary OK
