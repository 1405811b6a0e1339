"""Membership changes under failure: the Sec. V churn hard cases.

The happy-path single-server changes live in
``test_replication.py::TestMembershipChange``; this module stresses the
corners the campaign churn drill leans on: a leader crashing while a
configuration change is in flight, a leader removing *itself* (it must
serve until the entry commits, then step down — Raft thesis
Sec. 4.2.2), and a removed node catching back up by log replay once
it is re-added.
"""

import numpy as np
import pytest

from repro.raft import RaftTiming
from repro.raft.cluster import RaftCluster, RaftHost
from repro.raft.node import Role


def _add_passive_host(cluster: RaftCluster, new_id: int) -> RaftHost:
    """A newcomer with a learned config that does not include itself."""
    host = RaftHost(
        new_id,
        cluster.sim,
        cluster.network,
        members=[h.node_id for h in cluster.hosts],
        timing=RaftTiming(timeout_base_ms=50.0),
        rng=np.random.default_rng(1000 + new_id),
        on_apply=cluster._make_apply(new_id),
    )
    cluster.applied[new_id] = []
    host.raft.start()
    cluster.hosts.append(host)
    return host


class TestLeaderCrashMidChange:
    def test_leader_crash_mid_add_server(self):
        """The add may or may not survive the crash; the successor's
        configuration must stay consistent and the add must be
        retryable until the newcomer is an active member."""
        cluster = RaftCluster(3, seed=40)
        lid = cluster.run_until_leader()
        newcomer = _add_passive_host(cluster, 3)
        assert cluster.node(lid).add_server(3) is not None
        # Crash before the entry can replicate (one-way delay is 15 ms).
        cluster.crash(lid)
        new_lid = cluster.run_until_leader()
        assert new_lid != lid
        deadline = cluster.sim.now + 30_000.0
        while cluster.sim.now < deadline:
            leader = cluster.leader_id()
            if leader is not None:
                if 3 in cluster.node(leader).members and newcomer.raft.is_member:
                    break
                cluster.node(leader).add_server(3)
            cluster.run_for(200.0)
        assert newcomer.raft.is_member
        # The joined node replicates post-join traffic.
        cluster.propose(("after-add",))
        cluster.run_for(2_000.0)
        assert ("after-add",) in [c for _, c in cluster.applied[3]]
        # Election safety held throughout the churn.
        for term, winners in cluster.leaders_by_term().items():
            assert len(winners) == 1, f"split brain in term {term}"

    def test_leader_crash_mid_remove_server(self):
        cluster = RaftCluster(5, seed=41)
        lid = cluster.run_until_leader()
        victim = next(i for i in range(5) if i != lid)
        assert cluster.node(lid).remove_server(victim) is not None
        cluster.crash(lid)
        cluster.run_until_leader()
        deadline = cluster.sim.now + 30_000.0
        while cluster.sim.now < deadline:
            leader = cluster.leader_id()
            if leader is not None and leader != victim:
                if victim not in cluster.node(leader).members:
                    break
                cluster.node(leader).remove_server(victim)
            cluster.run_for(200.0)
        leader = cluster.leader_id()
        assert leader is not None
        assert victim not in cluster.node(leader).members
        assert cluster.node(leader).quorum() == 3  # 4 members remain
        for term, winners in cluster.leaders_by_term().items():
            assert len(winners) == 1, f"split brain in term {term}"


class TestOneChangeAtATime:
    def test_second_change_waits_for_the_first_to_commit(self):
        """Two single-server changes in flight form a two-server swap
        whose old and new majorities need not intersect, so a leader
        refuses ("not now, retry") until the first one commits."""
        cluster = RaftCluster(5, seed=46)
        lid = cluster.run_until_leader()
        newcomer = _add_passive_host(cluster, 5)
        leader = cluster.node(lid)
        a, b = [i for i in range(5) if i != lid][:2]
        assert leader.remove_server(a) is not None
        assert leader.add_server(5) is None
        assert leader.remove_server(b) is None
        cluster.run_for(1_000.0)  # the removal commits
        assert leader.add_server(5) > 0
        cluster.run_for(2_000.0)
        assert newcomer.raft.is_member
        assert cluster.node(lid).members == set(range(6)) - {a}


class TestRemovedLeaderStepDown:
    def test_leader_self_removal_steps_down(self):
        """A leader removing itself serves until C_new commits, then
        steps down; the survivors elect a replacement and keep going."""
        cluster = RaftCluster(3, seed=42)
        lid = cluster.run_until_leader()
        assert cluster.node(lid).remove_server(lid) is not None
        cluster.run_for(5_000.0)
        assert cluster.node(lid).role is not Role.LEADER
        assert not cluster.node(lid).is_member
        new_lid = cluster.run_until_leader()
        assert new_lid != lid
        assert lid not in cluster.node(new_lid).members
        assert cluster.node(new_lid).quorum() == 2  # 2 members remain
        # The shrunk cluster still commits.
        cluster.propose(("post-shrink",))
        cluster.run_for(2_000.0)
        assert ("post-shrink",) in [c for _, c in cluster.applied[new_lid]]

    def test_removed_leader_does_not_count_itself(self):
        """The self-removal entry commits on a quorum of the *new*
        configuration, not on the old leader's own vote."""
        cluster = RaftCluster(2, seed=43)
        lid = cluster.run_until_leader()
        other = 1 - lid
        # Cut the only other member off: the new config {other} needs
        # `other` itself to commit, so the removal must NOT commit.
        cluster.crash(other)
        assert cluster.node(lid).remove_server(lid) is not None
        cluster.run_for(3_000.0)
        assert cluster.node(lid).role is Role.LEADER  # still serving
        cluster.recover(other)
        cluster.run_for(5_000.0)
        assert cluster.node(lid).role is not Role.LEADER


class TestRejoinCatchUp:
    def test_rejoined_after_removal_and_readd(self):
        """Leave + rejoin as the campaign does it: removed from the
        config, later re-added, catching up by log replay."""
        cluster = RaftCluster(3, seed=45)
        lid = cluster.run_until_leader()
        leaver = next(i for i in range(3) if i != lid)
        cluster.crash(leaver)
        assert cluster.node(lid).remove_server(leaver) is not None
        for i in range(12):
            cluster.propose(("while-away", i))
            cluster.run_for(100.0)
        cluster.run_for(2_000.0)
        assert leaver not in cluster.node(lid).members
        # The peer comes back and is re-admitted via add_server.
        cluster.recover(leaver)
        deadline = cluster.sim.now + 30_000.0
        while cluster.sim.now < deadline:
            leader = cluster.leader_id()
            if leader is not None and leader != leaver:
                if (
                    leaver in cluster.node(leader).members
                    and cluster.node(leaver).is_member
                ):
                    break
                cluster.node(leader).add_server(leaver)
            cluster.run_for(200.0)
        assert cluster.node(leaver).is_member
        cluster.propose(("back",))
        cluster.run_for(2_000.0)
        assert ("back",) in [c for _, c in cluster.applied[leaver]]


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
