"""Log-replication, commit-safety and membership-change tests."""

import pytest

from repro.raft import RaftCluster
from repro.raft.node import ADD_SERVER, NOOP
from tests.simnet.faults import partition


def committed_commands(cluster, node_id):
    return [cmd for _, cmd in cluster.applied[node_id]]


class TestReplication:
    def test_command_reaches_all_state_machines(self):
        cluster = RaftCluster(5, seed=0)
        cluster.run_until_leader()
        cluster.propose(("set", "x", 1))
        cluster.run_for(2_000.0)
        for i in range(5):
            assert ("set", "x", 1) in committed_commands(cluster, i)

    def test_commands_applied_in_order_everywhere(self):
        cluster = RaftCluster(5, seed=1)
        cluster.run_until_leader()
        for v in range(5):
            cluster.propose(("cmd", v))
            cluster.run_for(300.0)
        cluster.run_for(2_000.0)
        reference = committed_commands(cluster, 0)
        payload = [c for c in reference if c[0] == "cmd"]
        assert payload == [("cmd", v) for v in range(5)]
        for i in range(1, 5):
            assert committed_commands(cluster, i) == reference

    def test_propose_on_follower_rejected(self):
        cluster = RaftCluster(3, seed=2)
        lid = cluster.run_until_leader()
        follower = next(i for i in range(3) if i != lid)
        assert cluster.node(follower).propose("nope") is None

    def test_commit_survives_minority_crash(self):
        cluster = RaftCluster(5, seed=3)
        lid = cluster.run_until_leader()
        followers = [i for i in range(5) if i != lid]
        cluster.crash(followers[0])
        cluster.crash(followers[1])
        cluster.propose(("after-crash",))
        cluster.run_for(2_000.0)
        for i in [lid, followers[2], followers[3]]:
            assert ("after-crash",) in committed_commands(cluster, i)

    def test_entry_not_committed_without_quorum(self):
        cluster = RaftCluster(5, seed=4)
        lid = cluster.run_until_leader()
        # Isolate the leader with one follower: quorum of 3 unreachable.
        keeper = next(i for i in range(5) if i != lid)
        rest = [i for i in range(5) if i not in (lid, keeper)]
        partition(cluster.sim, cluster.network, [[lid, keeper], rest], 10_000.0)
        cluster.node(lid).propose(("stranded",))
        cluster.run_for(3_000.0)
        assert ("stranded",) not in committed_commands(cluster, lid)
        assert ("stranded",) not in committed_commands(cluster, keeper)

    def test_crashed_follower_catches_up_on_recovery(self):
        cluster = RaftCluster(5, seed=5)
        lid = cluster.run_until_leader()
        straggler = next(i for i in range(5) if i != lid)
        cluster.crash(straggler)
        for v in range(3):
            cluster.propose(("missed", v))
            cluster.run_for(300.0)
        cluster.run_for(1_000.0)
        cluster.recover(straggler)
        cluster.run_for(3_000.0)
        got = committed_commands(cluster, straggler)
        for v in range(3):
            assert ("missed", v) in got

    def test_logs_identical_prefix_property(self):
        """Log Matching: all committed prefixes agree across nodes."""
        cluster = RaftCluster(5, seed=6)
        cluster.run_until_leader()
        for v in range(8):
            cluster.propose(("v", v))
            cluster.run_for(200.0)
        cluster.run_for(2_000.0)
        logs = [cluster.node(i).log for i in range(5)]
        commits = [cluster.node(i).commit_index for i in range(5)]
        floor = min(commits)
        for idx in range(1, floor + 1):
            versions = {
                (log.term_at(idx), repr(log.get(idx).command)) for log in logs
            }
            assert len(versions) == 1

    def test_stale_leader_entries_discarded_after_heal(self):
        """A partitioned stale leader's uncommitted entries get truncated."""
        cluster = RaftCluster(5, seed=7)
        lid = cluster.run_until_leader()
        others = [i for i in range(5) if i != lid]
        partition(cluster.sim, cluster.network, [[lid], others], 6_000.0)
        cluster.node(lid).propose(("stale-entry",))
        # Majority side elects a new leader and commits new entries.
        cluster.run_for(4_000.0)
        new_lid = next(i for i in others if cluster.node(i).is_leader)
        cluster.node(new_lid).propose(("fresh-entry",))
        cluster.run_for(2_000.0)  # the partition heals here
        cluster.run_for(4_000.0)
        # The stale entry must not be applied anywhere; the fresh one
        # must be applied everywhere, including the healed old leader.
        for i in range(5):
            cmds = committed_commands(cluster, i)
            assert ("stale-entry",) not in cmds
            assert ("fresh-entry",) in cmds


class TestMembershipChange:
    def test_add_server_extends_cluster(self):
        cluster = RaftCluster(3, seed=10)
        lid = cluster.run_until_leader()
        # Bring up a 4th host, initially passive (not in the config).
        from repro.raft.cluster import RaftHost
        from repro.raft import RaftTiming
        import numpy as np

        newcomer = RaftHost(
            3,
            cluster.sim,
            cluster.network,
            members=[0, 1, 2],  # learned config; itself not included yet
            timing=RaftTiming(timeout_base_ms=50.0),
            rng=np.random.default_rng(99),
            on_apply=cluster._make_apply(3),
        )
        cluster.applied[3] = []
        newcomer.raft.start()
        cluster.hosts.append(newcomer)
        assert cluster.node(lid).add_server(3) is not None
        cluster.run_for(3_000.0)
        assert 3 in cluster.node(lid).members
        assert newcomer.raft.is_member
        # The newcomer replicates subsequent commands.
        cluster.propose(("post-join",))
        cluster.run_for(2_000.0)
        assert ("post-join",) in committed_commands(cluster, 3)

    def test_add_existing_member_is_noop(self):
        cluster = RaftCluster(3, seed=11)
        lid = cluster.run_until_leader()
        assert cluster.node(lid).add_server(0) == -1

    def test_add_server_rejected_on_follower(self):
        cluster = RaftCluster(3, seed=12)
        lid = cluster.run_until_leader()
        follower = next(i for i in range(3) if i != lid)
        assert cluster.node(follower).add_server(9) is None

    def test_quorum_grows_with_membership(self):
        cluster = RaftCluster(3, seed=13)
        lid = cluster.run_until_leader()
        assert cluster.node(lid).quorum() == 2
        from repro.raft.cluster import RaftHost
        from repro.raft import RaftTiming
        import numpy as np

        for new_id in (3, 4):
            host = RaftHost(
                new_id, cluster.sim, cluster.network, members=[0, 1, 2],
                timing=RaftTiming(timeout_base_ms=50.0),
                rng=np.random.default_rng(new_id),
            )
            host.raft.start()
            cluster.hosts.append(host)
            cluster.applied[new_id] = []
            cluster.node(lid).add_server(new_id)
            cluster.run_for(2_000.0)
        assert cluster.node(lid).quorum() == 3

    def test_remove_server_shrinks_cluster(self):
        cluster = RaftCluster(5, seed=14)
        lid = cluster.run_until_leader()
        victim = next(i for i in range(5) if i != lid)
        assert cluster.node(lid).remove_server(victim) is not None
        cluster.run_for(2_000.0)
        assert victim not in cluster.node(lid).members
        assert cluster.node(lid).quorum() == 3  # 4 members now
