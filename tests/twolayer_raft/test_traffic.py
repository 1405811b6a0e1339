"""Raft control-plane traffic accounting on the two-layer system."""

from repro.core import Topology
from repro.nn.zoo import PAPER_CNN_PARAMS
from repro.twolayer_raft import TwoLayerRaftSystem


class TestControlTraffic:
    def test_raft_overhead_negligible_vs_aggregation_round(self):
        """Sec. V uses Raft only for leadership + config: a full minute of
        steady-state control traffic (heartbeats across 6 clusters) must
        be a rounding error next to ONE aggregation round's 7.1 Gb —
        which is what justifies ignoring it in the Sec. VII analysis."""
        from repro.core import two_layer_cost_from_topology

        topo = Topology.by_group_count(25, 5)
        system = TwoLayerRaftSystem(topo, timeout_base_ms=50.0, seed=0)
        system.stabilize()
        system.trace.reset()
        system.run_for(60_000.0)  # one simulated minute
        control_bits = system.trace.total_bits
        round_bits = two_layer_cost_from_topology(topo, PAPER_CNN_PARAMS)
        assert control_bits < 0.01 * round_bits

    def test_traffic_is_tagged_by_layer(self):
        system = TwoLayerRaftSystem(
            Topology.by_group_count(9, 3), timeout_base_ms=50.0, seed=1
        )
        system.stabilize()
        system.run_for(2_000.0)
        kinds = set(system.trace.kinds())
        assert any(k.startswith("raft.sub0") for k in kinds)
        assert any(k.startswith("raft.fed") for k in kinds)

    def test_recovery_burst_visible_in_trace(self):
        system = TwoLayerRaftSystem(
            Topology.by_group_count(9, 3), timeout_base_ms=50.0, seed=2
        )
        system.stabilize()
        system.run_for(1_000.0)
        system.trace.reset()
        system.run_for(2_000.0)
        steady = system.trace.total_messages
        fed = system.fed_leader()
        gi = next(
            g for g in range(3) if system.subgroup_leader(g) not in (None, fed)
        )
        system.crash(system.subgroup_leader(gi))
        system.trace.reset()
        system.run_for(2_000.0)
        during_recovery = system.trace.total_messages
        # Elections + join add message volume over the steady state.
        assert during_recovery > steady * 0.8  # at least comparable
        vote_msgs = sum(
            system.trace.messages(kind) for kind in system.trace.kinds()
            if kind.startswith(f"raft.sub{gi}.vote")
        )
        assert vote_msgs > 0
