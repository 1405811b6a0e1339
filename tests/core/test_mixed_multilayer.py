"""Subgroup counts per layer of the X-layer tree (Sec. VII-C)."""

import pytest

from repro.core import MultiLayerTopology
from repro.core.costs import multi_layer_groups_at


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
