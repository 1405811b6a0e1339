"""Tests for mixed (SAC + FedAvg) multi-layer aggregation (Sec. VII-C)."""

import numpy as np
import pytest

from repro.core import MultiLayerTopology, multi_layer_aggregate, multi_layer_cost_bits
from repro.core.costs import (
    multi_layer_groups_at,
    multi_layer_message_count,
    multi_layer_total_peers,
)

RNG = lambda seed=0: np.random.default_rng(seed)


class TestGroupsAt:
    def test_counts(self):
        assert multi_layer_groups_at(3, 1) == 1
        assert multi_layer_groups_at(3, 2) == 3
        assert multi_layer_groups_at(3, 3) == 6
        assert multi_layer_groups_at(4, 3) == 12

    def test_matches_topology(self):
        topo = MultiLayerTopology(3, 3)
        for layer in (1, 2, 3):
            assert len(topo.member_matrix(layer)) == multi_layer_groups_at(3, layer)

    def test_validation(self):
        with pytest.raises(ValueError):
            multi_layer_groups_at(3, 0)


class TestMixedCostFormula:
    def test_all_sac_equals_eq10(self):
        for n, depth in [(3, 2), (3, 3), (4, 2)]:
            all_layers = set(range(1, depth + 1))
            assert multi_layer_message_count(
                n, depth, all_layers
            ) == multi_layer_cost_bits(n, depth, 1, 1)

    def test_fedavg_layers_cheaper(self):
        full = multi_layer_message_count(3, 3, {1, 2, 3})
        leaf_only = multi_layer_message_count(3, 3, {3})
        none = multi_layer_message_count(3, 3, set())
        assert none < leaf_only < full

    def test_all_fedavg_closed_form(self):
        # Every group costs (n-1)|w| plus (N-1)|w| distribution.
        n, depth = 3, 2
        total_groups = 1 + 3
        n_peers = multi_layer_total_peers(n, depth)
        expected = total_groups * (n - 1) + (n_peers - 1)
        assert multi_layer_message_count(n, depth, set()) == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            multi_layer_message_count(1, 2, set())
        with pytest.raises(ValueError):
            multi_layer_message_count(3, 2, {5})


class TestMixedAggregate:
    def test_equals_global_mean_any_mix(self):
        topo = MultiLayerTopology(3, 3)
        rng = RNG(1)
        models = [rng.normal(size=5) for _ in range(topo.n_peers)]
        for methods in [
            lambda l: "sac",
            lambda l: "fedavg",
            lambda l: "sac" if l == 3 else "fedavg",  # secure leaves only
        ]:
            result = multi_layer_aggregate(
                topo, models, rng, method_for_layer=methods
            )
            np.testing.assert_allclose(
                result.average, np.mean(models, axis=0), rtol=1e-9
            )

    def test_measured_cost_matches_mixed_formula(self):
        topo = MultiLayerTopology(3, 3)
        rng = RNG(2)
        models = [rng.normal(size=16) for _ in range(topo.n_peers)]
        result = multi_layer_aggregate(
            topo, models, rng,
            method_for_layer=lambda l: "sac" if l == 3 else "fedavg",
        )
        assert result.bits_sent == multi_layer_message_count(3, 3, {3}) * 16 * 32

    def test_fedavg_upper_layers_cut_cost(self):
        topo = MultiLayerTopology(3, 3)
        rng = RNG(3)
        models = [rng.normal(size=8) for _ in range(topo.n_peers)]
        full = multi_layer_aggregate(topo, models, RNG(3))
        mixed = multi_layer_aggregate(
            topo, models, RNG(3),
            method_for_layer=lambda l: "sac" if l == 3 else "fedavg",
        )
        assert mixed.bits_sent < full.bits_sent
        np.testing.assert_allclose(mixed.average, full.average, rtol=1e-9)

    def test_unknown_method_rejected(self):
        topo = MultiLayerTopology(3, 2)
        models = [np.ones(2)] * topo.n_peers
        with pytest.raises(ValueError):
            multi_layer_aggregate(
                topo, models, RNG(), method_for_layer=lambda l: "magic"
            )
