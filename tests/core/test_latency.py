"""Tests for the round wall-clock latency model."""

import numpy as np
import pytest

from repro.core import Topology
from repro.core.latency import (
    ft_sac_latency_ms,
    one_layer_sac_latency_ms,
    two_layer_round_latency_ms,
)


class TestFtSacLatency:
    def test_known_value(self):
        # n=3, k=2, 1000 params x 32 bit = 32 kb; 1 Mb/s -> t_w = 32 ms.
        # phase1: 2 peers-worth * 2 shares * 32 + 15 = 143; phase2: 47.
        t = ft_sac_latency_ms(3, 2, 1000, 1e6)
        assert t == pytest.approx((2 * 2 * 32.0 + 15.0) + (32.0 + 15.0))

    def test_single_peer_is_free(self):
        assert ft_sac_latency_ms(1, 1, 1000, 1e6) == 0.0

    def test_k1_skips_subtotal_phase(self):
        with_sub = ft_sac_latency_ms(3, 2, 1000, 1e6)
        without = ft_sac_latency_ms(3, 1, 1000, 1e6)
        # k=1 ships bigger bundles but needs no subtotal upload.
        assert without != with_sub

    def test_smaller_k_costs_more_phase1(self):
        # More replication = longer uplink occupancy.
        assert ft_sac_latency_ms(5, 2, 1000, 1e6) > ft_sac_latency_ms(5, 4, 1000, 1e6)

    def test_validation(self):
        with pytest.raises(ValueError):
            ft_sac_latency_ms(3, 0, 1000, 1e6)
        with pytest.raises(ValueError):
            ft_sac_latency_ms(3, 2, 0, 1e6)
        with pytest.raises(ValueError):
            ft_sac_latency_ms(3, 2, 1000, 0.0)


class TestOneLayerLatency:
    def test_scales_linearly_with_n(self):
        # Two phases, each (N-1) t_w of uplink plus a 15 ms hop.
        t10 = one_layer_sac_latency_ms(10, 1000, 1e6) - 2 * 15.0
        t20 = one_layer_sac_latency_ms(20, 1000, 1e6) - 2 * 15.0
        assert t20 / t10 == pytest.approx(19 / 9)

    def test_single_peer_free(self):
        assert one_layer_sac_latency_ms(1, 1000, 1e6) == 0.0


class TestTwoLayerLatency:
    def test_breakdown_sums(self):
        topo = Topology.by_group_size(30, 3)
        lat = two_layer_round_latency_ms(topo, 2, 1000, 1e6)
        assert lat.total_ms == pytest.approx(
            lat.sac_ms + lat.fedavg_ms + lat.broadcast_ms
        )

    def test_two_layer_faster_than_one_layer_at_scale(self):
        """The wall-clock counterpart of Fig. 13's volume story."""
        from repro.nn.zoo import PAPER_CNN_PARAMS

        topo = Topology.by_group_size(30, 3)
        two = two_layer_round_latency_ms(
            topo, 2, PAPER_CNN_PARAMS, 100e6
        ).total_ms
        one = one_layer_sac_latency_ms(30, PAPER_CNN_PARAMS, 100e6)
        assert two < one
        assert one / two > 3.0  # decisive, not marginal

    def test_slowest_subgroup_gates_the_round(self):
        uneven = Topology(groups=((0, 1), (2, 3, 4, 5, 6)), leaders=(0, 2))
        lat = two_layer_round_latency_ms(uneven, None, 1000, 1e6)
        big_only = ft_sac_latency_ms(5, 5, 1000, 1e6)
        assert lat.sac_ms == pytest.approx(big_only)

    def test_single_group_has_no_fedavg_hop(self):
        topo = Topology.single_group(5)
        lat = two_layer_round_latency_ms(topo, None, 1000, 1e6)
        assert lat.fedavg_ms == 0.0

    def test_threshold_clamped_to_group_size(self):
        topo = Topology(groups=((0, 1), (2, 3, 4)), leaders=(0, 2))
        lat = two_layer_round_latency_ms(topo, 3, 1000, 1e6)  # k>|group 0|
        assert lat.total_ms > 0
