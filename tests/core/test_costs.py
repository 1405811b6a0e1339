"""Cost-model tests, pinned to the paper's headline numbers (Secs. VII-A/B)."""

import pytest

from repro.core import (
    Topology,
    multi_layer_cost_bits,
    one_layer_sac_cost_bits,
    reduction_factor,
    two_layer_cost_bits,
    two_layer_cost_from_topology,
    two_layer_ft_cost_bits,
    two_layer_ft_cost_from_topology,
)
from repro.core.costs import multi_layer_total_peers
from repro.nn.zoo import PAPER_CNN_PARAMS

W = PAPER_CNN_PARAMS  # 1,250,858 — the Fig. 5 CNN


class TestBaseline:
    def test_formula(self):
        # 2 N (N-1) |w| with one 32-bit parameter.
        assert one_layer_sac_cost_bits(10, 1) == 180 * 32

    def test_paper_196gb_baseline_at_n50(self):
        """Sec. VII-B: 'The aggregation cost is 196.13Gb in the baseline
        (n = N = 50)'."""
        gb = one_layer_sac_cost_bits(50, W) / 1e9
        assert gb == pytest.approx(196.13, abs=0.01)

    def test_single_peer_costs_nothing(self):
        assert one_layer_sac_cost_bits(1, W) == 0


class TestEq4:
    def test_formula_components(self):
        # m(n^2-1) + m(n-1) + 2(m-1) == m n^2 + m n - 2
        for m in range(1, 8):
            for n in range(1, 8):
                direct = m * (n * n - 1) + m * (n - 1) + 2 * (m - 1)
                assert two_layer_cost_bits(m, n, 1) == direct * 32

    def test_paper_7_12gb_at_m6(self):
        """Fig. 13: 'When m = 6, the communication cost is 7.12Gb'."""
        gb = two_layer_cost_bits(6, 5, W) / 1e9
        assert gb == pytest.approx(7.12, abs=0.01)

    def test_m6_is_about_one_tenth_of_baseline(self):
        ratio = one_layer_sac_cost_bits(30, W) / two_layer_cost_bits(6, 5, W)
        assert 9.5 < ratio < 10.0  # 'about one-tenth'

    def test_m_equals_n_degenerates_to_fedavg(self):
        # n=1 per subgroup: Eq. 4 -> 2(N-1)|w|, plain FedAvg.
        n_peers = 30
        assert two_layer_cost_bits(n_peers, 1, W) == 2 * (n_peers - 1) * W * 32

    def test_m1_matches_one_layer_sac_shape(self):
        # m=1: (n^2 + n - 2)|w| = SAC's share+subtotal traffic with the
        # leader-collection pattern (smaller than broadcast-everywhere SAC).
        assert two_layer_cost_bits(1, 5, 1) == 28 * 32


class TestEq5:
    def test_reduces_to_eq4_when_k_equals_n(self):
        for m in range(1, 6):
            for n in range(1, 6):
                n_total = m * n
                assert two_layer_ft_cost_bits(
                    n_total, m, n, n, 1
                ) == two_layer_cost_bits(m, n, 1)

    def test_paper_10_36x_at_3_2_30(self):
        """Abstract + Sec. VII-B: n,k,N = 3,2,30 -> 10.36x reduction."""
        assert reduction_factor(30, 10, 3, 2) == pytest.approx(10.36, abs=0.01)

    def test_paper_14_75x_at_3_3_30(self):
        assert reduction_factor(30, 10, 3, 3) == pytest.approx(14.75, abs=0.01)

    def test_paper_4_29x_at_5_3_30(self):
        assert reduction_factor(30, 6, 5, 3) == pytest.approx(4.29, abs=0.01)

    def test_fault_tolerance_costs_more_than_plain(self):
        plain = two_layer_ft_cost_bits(30, 10, 3, 3, W)
        ft = two_layer_ft_cost_bits(30, 10, 3, 2, W)
        assert ft > plain

    def test_still_cheaper_than_baseline(self):
        for n, k in [(3, 2), (5, 3)]:
            m = 30 // n
            assert two_layer_ft_cost_bits(30, m, n, k, W) < one_layer_sac_cost_bits(
                30, W
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            two_layer_ft_cost_bits(30, 10, 3, 0, W)
        with pytest.raises(ValueError):
            two_layer_ft_cost_bits(30, 10, 3, 4, W)
        with pytest.raises(ValueError):
            two_layer_cost_bits(0, 3, W)
        with pytest.raises(ValueError):
            one_layer_sac_cost_bits(0, W)
        with pytest.raises(ValueError):
            one_layer_sac_cost_bits(3, 0)


class TestTopologyExactCosts:
    def test_matches_eq4_for_even_groups(self):
        topo = Topology.by_group_count(25, 5)  # five groups of 5
        assert two_layer_cost_from_topology(topo, 1) == two_layer_cost_bits(5, 5, 1)

    def test_uneven_groups_close_to_eq4(self):
        # N=30, m=4 -> 8,8,7,7; Eq. 4 with n=7.5 is not defined, but the
        # exact cost sits between the n=7 and n=8 values.
        topo = Topology.by_group_count(30, 4)
        exact = two_layer_cost_from_topology(topo, 1)
        lo = two_layer_cost_bits(4, 7, 1)
        hi = two_layer_cost_bits(4, 8, 1)
        assert lo < exact < hi

    def test_ft_matches_eq5_for_even_groups(self):
        topo = Topology.by_group_count(30, 10)  # ten groups of 3
        assert two_layer_ft_cost_from_topology(
            topo, 2, 1
        ) == two_layer_ft_cost_bits(30, 10, 3, 2, 1)

    def test_ft_threshold_exceeding_group_rejected(self):
        topo = Topology.by_group_count(9, 3)
        with pytest.raises(ValueError):
            two_layer_ft_cost_from_topology(topo, 4, 1)


class TestEq10:
    def test_total_peers_eq6(self):
        assert multi_layer_total_peers(3, 1) == 3
        assert multi_layer_total_peers(3, 2) == 3 + 6
        assert multi_layer_total_peers(3, 3) == 3 + 6 + 12
        assert multi_layer_total_peers(5, 2) == 25

    def test_formula(self):
        # (N-1)(n+2)|w|
        n, depth = 3, 3
        total = multi_layer_total_peers(n, depth)
        assert multi_layer_cost_bits(n, depth, 1) == (total - 1) * (n + 2) * 32

    def test_linear_in_n_peers(self):
        """Communication approaches O(N) as depth grows (Sec. VII-C)."""
        n = 3
        for depth in (2, 3, 4, 5):
            total = multi_layer_total_peers(n, depth)
            per_peer = multi_layer_cost_bits(n, depth, 1) / total
            assert per_peer < (n + 2) * 32  # bounded per-peer cost

    def test_validation(self):
        with pytest.raises(ValueError):
            multi_layer_cost_bits(1, 2, 1)
        with pytest.raises(ValueError):
            multi_layer_cost_bits(3, 0, 1)


class TestSeededClosedForms:
    """Seed-compressed share distribution (the O(d + n) wire codec)."""

    def test_one_layer_formula(self):
        import numpy as np

        from repro.secure import SEED_SHARE_BITS, run_sac_protocol

        # An n-out-of-n group: N(N-1) seeds + (N-1) subtotals of one
        # 32-bit parameter.
        n = 10
        models = [np.full(1, float(i)) for i in range(n)]
        r = run_sac_protocol(models, k=n, share_codec="seed")
        assert r.bits_sent == n * (n - 1) * SEED_SHARE_BITS + (n - 1) * 32

    def test_one_layer_measured_matches(self):
        import numpy as np

        from repro.core import seeded_exchange_bits
        from repro.secure import SEED_SHARE_BITS, run_sac_protocol

        models = [
            np.random.default_rng(i).normal(size=128) for i in range(6)
        ]
        r = run_sac_protocol(models, k=6, share_codec="seed")
        assert seeded_exchange_bits(6, 6, 128) == 6 * 5 * SEED_SHARE_BITS
        assert r.bits_sent == 6 * 5 * SEED_SHARE_BITS + 5 * 128 * 32

    def test_seeded_exchange_pure_seeds_at_k_equals_n(self):
        from repro.core import seeded_exchange_bits
        from repro.secure import SEED_SHARE_BITS

        for n in (3, 5, 10):
            assert seeded_exchange_bits(n, n, W) == (
                n * (n - 1) * SEED_SHARE_BITS
            )

    def test_two_layer_seeded_components(self):
        from repro.core import (
            seeded_exchange_bits,
            two_layer_seeded_cost_from_topology,
        )

        for m in range(1, 6):
            for n in range(1, 6):
                direct = (
                    m * seeded_exchange_bits(n, n, 1)
                    + (2 * m * (n - 1) + 2 * (m - 1)) * 32
                )
                topo = Topology.by_group_count(m * n, m)
                assert two_layer_seeded_cost_from_topology(topo, None, 1) == direct

    def test_ft_seeded_reduces_to_n_out_of_n(self):
        from repro.core import two_layer_seeded_cost_from_topology

        # k = n: the FT closed form must coincide with the Eq. 4 analogue.
        for m, n in [(3, 4), (6, 5), (5, 6)]:
            topo = Topology.by_group_count(n * m, m)
            assert two_layer_seeded_cost_from_topology(
                topo, n, W
            ) == two_layer_seeded_cost_from_topology(topo, None, W)

    def test_headline_reduction_at_paper_settings(self):
        """Acceptance: >= 40% fewer wire bits at the paper's operating
        point (N=30 in m=6 subgroups of n=5, Fig. 5 CNN)."""
        from repro.core import two_layer_seeded_cost_from_topology

        dense = two_layer_cost_bits(6, 5, W)
        seeded = two_layer_seeded_cost_from_topology(
            Topology.by_group_count(30, 6), None, W
        )
        assert 1 - seeded / dense >= 0.40

    def test_sac_round_reduction_n_out_of_n(self):
        """The protocol-level sac_round reduction (n-out-of-n exchange
        collapses to pure seeds) clears the 40% bar by a wide margin."""
        from repro.core import seeded_exchange_bits
        from repro.secure import expected_ft_sac_bits

        dense = expected_ft_sac_bits(30, 30, W)
        seeded = seeded_exchange_bits(30, 30, W) + 29 * W * 32
        assert 1 - seeded / dense >= 0.90

    def test_ft_seeded_measured_matches(self):
        import numpy as np

        from repro.core import seeded_exchange_bits
        from repro.secure import run_sac_protocol

        models = [
            np.random.default_rng(i).normal(size=64) for i in range(6)
        ]
        for k in (4, 6):
            # Seeded exchange plus the (k-1) dense subtotals.
            expected = seeded_exchange_bits(6, k, 64) + (k - 1) * 64 * 32
            proto = run_sac_protocol(models, k=k, share_codec="seed")
            assert proto.outcome.ok
            assert proto.bits_sent == expected
