"""Tests for the two-layer Raft system (Sec. V)."""

import pytest

from repro.core import Topology
from repro.twolayer_raft import TwoLayerRaftSystem


def small_system(seed=0, **kw):
    """3 subgroups x 3 peers — fast but structurally complete."""
    kw.setdefault("timeout_base_ms", 50.0)
    return TwoLayerRaftSystem(Topology.by_group_count(9, 3), seed=seed, **kw)


class TestBootstrap:
    def test_stabilizes_with_all_leaders(self):
        system = small_system()
        system.stabilize()
        for gi in range(3):
            assert system.subgroup_leader(gi) is not None
        assert system.fed_leader() is not None

    def test_fed_layer_members_are_subgroup_leaders_initially(self):
        system = small_system(seed=1)
        system.stabilize()
        fed_leader = system.fed_leader()
        members = system.fed_members_of(fed_leader)
        assert members == frozenset(system.topology.leaders)

    def test_initial_subgroup_leaders_prefer_bootstrap_leaders(self):
        # Bootstrap leaders have FedAvg endpoints; whoever wins the first
        # subgroup election becomes the operative leader. Just check
        # leaders are members of the right groups.
        system = small_system(seed=2)
        system.stabilize()
        for gi in range(3):
            leader = system.subgroup_leader(gi)
            assert leader in system.topology.groups[gi]

    def test_paper_scale_network_stabilizes(self):
        system = TwoLayerRaftSystem(
            Topology.by_group_count(25, 5), timeout_base_ms=50.0, seed=3
        )
        system.stabilize()
        assert system.fed_leader() is not None


class TestSubgroupLeaderCrash:
    def test_new_leader_elected_and_joins_fedavg(self):
        system = small_system(seed=10)
        system.stabilize()
        system.run_for(1_000.0)
        fed_leader = system.fed_leader()
        gi = next(
            g
            for g in range(3)
            if system.subgroup_leader(g) != fed_leader
        )
        victim = system.subgroup_leader(gi)
        t0 = system.sim.now
        system.crash(victim)
        system.run_for(5_000.0)
        new_leader = system.subgroup_leader(gi)
        assert new_leader is not None and new_leader != victim
        # The new leader was absorbed into the FedAvg layer.
        joined = [
            e
            for e in system.events
            if e.kind == "joined_fedavg" and e.peer == new_leader and e.time > t0
        ]
        assert joined
        assert new_leader in system.fed_members_of(system.fed_leader())

    def test_fedavg_membership_grows_not_shrinks(self):
        """Sec. VII-D: the crashed leader stays in the config; quorum grows."""
        system = small_system(seed=11)
        system.stabilize()
        system.run_for(1_000.0)
        fed_leader = system.fed_leader()
        before = system.fed_members_of(fed_leader)
        gi = next(g for g in range(3) if system.subgroup_leader(g) != fed_leader)
        victim = system.subgroup_leader(gi)
        system.crash(victim)
        system.run_for(6_000.0)
        after = system.fed_members_of(system.fed_leader())
        # Membership only grows (the crashed leader is never removed) and
        # the replacement leader is absorbed.
        assert before <= after
        assert victim in after
        new_leader = system.subgroup_leader(gi)
        assert new_leader in after


class TestFedAvgLeaderCrash:
    def test_both_layers_recover(self):
        system = small_system(seed=20)
        system.stabilize()
        system.run_for(1_000.0)
        victim = system.fed_leader()
        gi = system.peers[victim].group_index
        t0 = system.sim.now
        system.crash(victim)
        system.run_for(8_000.0)
        # New FedAvg leader among the remaining subgroup leaders.
        new_fed = system.fed_leader()
        assert new_fed is not None and new_fed != victim
        # The victim's subgroup elected a replacement who joined FedAvg.
        new_sub = system.subgroup_leader(gi)
        assert new_sub is not None and new_sub != victim
        assert new_sub in system.fed_members_of(new_fed)


class TestFollowerCrash:
    def test_follower_crash_disturbs_nothing(self):
        system = small_system(seed=30)
        system.stabilize()
        system.run_for(1_000.0)
        fed_leader = system.fed_leader()
        sub_leaders = {gi: system.subgroup_leader(gi) for gi in range(3)}
        follower = next(
            pid
            for pid in system.peers
            if pid != fed_leader and pid not in sub_leaders.values()
        )
        system.crash(follower)
        system.run_for(3_000.0)
        assert system.fed_leader() == fed_leader
        assert all(
            system.subgroup_leader(gi) == sub_leaders[gi] for gi in range(3)
        )


class TestConfigReplication:
    def test_followers_learn_fedavg_config_via_subgroup_log(self):
        system = small_system(seed=40)
        system.stabilize()
        system.run_for(2_000.0)
        # Every alive peer's fed_config should reflect the FedAvg members.
        fed_leader = system.fed_leader()
        expected = set(system.fed_members_of(fed_leader))
        for gi in range(3):
            for pid in system.topology.groups[gi]:
                if not system.network.is_crashed(pid):
                    assert set(system.peers[pid].fed_config) == expected

    def test_recovered_old_leader_rejoins_as_follower(self):
        system = small_system(seed=41)
        system.stabilize()
        system.run_for(1_000.0)
        fed_leader = system.fed_leader()
        gi = next(g for g in range(3) if system.subgroup_leader(g) != fed_leader)
        victim = system.subgroup_leader(gi)
        system.crash(victim)
        system.run_for(5_000.0)
        new_leader = system.subgroup_leader(gi)
        system.recover(victim)
        system.run_for(3_000.0)
        # The recovered peer must not have reclaimed subgroup leadership.
        assert system.subgroup_leader(gi) == new_leader
