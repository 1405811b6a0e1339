"""Tests for the deployment plans of the one planner (core/resharding.py)."""

import io
import tracemalloc
from contextlib import redirect_stdout

import pytest

from repro.__main__ import main
from repro.core import Topology
from repro.core.costs import two_layer_ft_cost_from_topology
from repro.core.latency import two_layer_round_latency_ms
from repro.core.resharding import PlanRequirements, enumerate_plans
from repro.nn.zoo import PAPER_CNN_PARAMS


class TestEnumerate:
    def test_plans_sorted_by_volume(self):
        plans = enumerate_plans(30, PAPER_CNN_PARAMS)
        volumes = [p.volume_bits for p in plans]
        assert volumes == sorted(volumes)
        assert plans  # N=30 has feasible configurations

    def test_paper_headline_plan_present(self):
        """(n=3, k=2, m=10) at N=30 is the paper's 10.36x configuration."""
        plans = enumerate_plans(30, PAPER_CNN_PARAMS)
        headline = next(p for p in plans if (p.n, p.k) == (3, 2))
        assert headline.m == 10
        assert headline.reduction_vs_baseline == pytest.approx(10.36, abs=0.01)

    def test_privacy_floor_enforced(self):
        plans = enumerate_plans(30, 1000)
        assert all(p.n >= 3 for p in plans)
        assert all(p.k >= 2 for p in plans)

    def test_dropout_tolerance_respected(self):
        req = PlanRequirements(sac_dropouts=2)
        plans = enumerate_plans(30, 1000, req)
        assert all(p.n - p.k >= 2 for p in plans)

    def test_raft_tolerance_respected(self):
        req = PlanRequirements(raft_crashes=2)
        plans = enumerate_plans(30, 1000, req)
        assert all((p.n - 1) // 2 >= 2 for p in plans)  # n >= 5

    def test_fedavg_leader_crash_needs_three_groups(self):
        req = PlanRequirements(fedavg_leader_crash=True)
        plans = enumerate_plans(12, 1000, req)
        assert all(p.m >= 3 for p in plans)
        relaxed = PlanRequirements(fedavg_leader_crash=False)
        more = enumerate_plans(12, 1000, relaxed)
        assert len(more) >= len(plans)

    def test_latency_populated_with_bandwidth(self):
        plans = enumerate_plans(30, 1000, bandwidth_bps=1e8)
        assert all(p.latency_ms is not None and p.latency_ms > 0 for p in plans)

    def test_too_few_peers(self):
        with pytest.raises(ValueError):
            enumerate_plans(2, 1000)

    def test_negative_requirements(self):
        with pytest.raises(ValueError):
            PlanRequirements(sac_dropouts=-1)


class TestScan:
    """The scan reads Eq. 5 and the latency model off a size multiset;
    the topology forms sum the same terms group by group."""

    def test_equals_the_topology_closed_forms(self):
        """Bits and latency of every plan with n >= 3 and k = n - d for
        every N <= 300, d = N mod 3 taking k from n down to n - 2.  The
        scan lists each grouping once, under its smallest group."""
        w, bw = PAPER_CNN_PARAMS, 1e8
        for n_peers in range(3, 301):
            d = n_peers % 3
            req = PlanRequirements(sac_dropouts=d, raft_crashes=0,
                                   fedavg_leader_crash=False)
            plans = enumerate_plans(n_peers, w, req, bandwidth_bps=bw)
            assert sorted(p.n for p in plans) == sorted({
                n_peers // (n_peers // n)
                for n in range(max(3, d + 2), n_peers + 1)})
            for p in plans:
                topo = Topology.by_group_size(n_peers, p.n)
                assert min(topo.group_sizes) == p.n
                assert (p.m, p.k) == (topo.n_groups, p.n - d)
                assert p.volume_bits == two_layer_ft_cost_from_topology(
                    topo, p.k, w)
                assert p.latency_ms == two_layer_round_latency_ms(
                    topo, p.k, w, bw).total_ms

    def test_topology_form_keeps_its_per_group_float_sum(self):
        """The multiset sum is an exact integer, so it equals the float
        accumulation group by group that the topology form had."""
        for n_peers, n, k in ((30, 3, 2), (31, 4, 3), (299, 17, 9),
                              (118_096, 7, 5)):
            topo = Topology.by_group_size(n_peers, n)
            total = 0.0
            for s in topo.group_sizes:
                total += s * (s - 1) * (s - k + 1) + (k - 1)
                total += s - 1
            total += 2 * (topo.n_groups - 1)
            assert two_layer_ft_cost_from_topology(topo, k, PAPER_CNN_PARAMS) \
                == total * float(PAPER_CNN_PARAMS * 32)

    def test_plan_at_paper_scale_holds_no_topology(self):
        """``repro plan`` at the 118,096-peer X-layer size runs in bounded
        memory and prints one row per group count.  The traced peak
        measured 12.3 MB (Python 3.11, output held in a StringIO) when
        the one-scan planner replaced the per-candidate topologies, which
        held 5.3 M peer ids at N = 4,000 and did not fit a 3 GB address
        space at N = 20,000; it printed 39,363 rows then, one per n.  A
        small warm-up run keeps first-import allocations out of the
        peak."""
        with redirect_stdout(io.StringIO()):
            assert main(["plan", "--plan-peers", "30"]) == 0
        out = io.StringIO()
        tracemalloc.start()
        try:
            with redirect_stdout(out):
                assert main(["plan", "--plan-peers", "118096"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.getvalue().count("\n") == 2 + 682
        assert peak < 16e6, f"traced peak {peak / 1e6:.1f} MB"

    def test_each_grouping_is_one_row(self):
        """Every n from 8 to 10 splits 30 peers into three groups of 10,
        so N = 30 lists m = 3 once, as (10, 9, 3)."""
        plans = enumerate_plans(30, PAPER_CNN_PARAMS)
        ms = [p.m for p in plans]
        assert len(ms) == len(set(ms))
        assert [(p.n, p.k) for p in plans if p.m == 3] == [(10, 9)]

    def test_columns_fit_their_widest_value(self):
        """At N = 30,000 m reaches five digits and the gain 10,588x, and
        every row still splits into its six fields."""
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["plan", "--plan-peers", "30000"]) == 0
        rows = out.getvalue().splitlines()[2:]
        assert rows and all(len(row.split()) == 6 for row in rows)
        assert rows[0].split() == ["3", "2", "10000", "6804.59", "10588.01x",
                                   "-"]


class TestRecommend:
    """A recommendation is read off enumerate_plans' list: its head by
    volume, its least latency when a bandwidth is given."""

    def test_volume_objective_picks_cheapest(self):
        plans = enumerate_plans(30, PAPER_CNN_PARAMS)
        assert plans[0].volume_bits == min(p.volume_bits for p in plans)
        assert (plans[0].n, plans[0].k, plans[0].m) == (3, 2, 10)

    def test_latency_objective(self):
        plans = enumerate_plans(30, PAPER_CNN_PARAMS, bandwidth_bps=1e8)
        best = min(plans, key=lambda p: p.latency_ms)
        assert (best.n, best.k, best.m) == (3, 2, 10)
        assert best.latency_ms == pytest.approx(6879.66752)

    def test_objectives_can_differ(self):
        """Min-volume and min-latency plans genuinely diverge: volume
        favors tiny n; latency weighs the replication on the uplink."""
        plans = enumerate_plans(
            30, PAPER_CNN_PARAMS, PlanRequirements(sac_dropouts=2),
            bandwidth_bps=1e8,
        )
        vol = plans[0]
        lat = min(plans, key=lambda p: p.latency_ms)
        assert (vol.n, vol.k, vol.m) == (4, 2, 7)
        assert (lat.n, lat.k, lat.m) == (5, 3, 6)

    def test_latency_requires_bandwidth(self):
        plans = enumerate_plans(30, 1000)
        assert plans and all(p.latency_ms is None for p in plans)

    def test_infeasible_requirements(self):
        assert enumerate_plans(6, 1000, PlanRequirements(raft_crashes=5)) == []
