"""Leader-election tests on the simulated network."""

import pytest

from repro.raft import RaftCluster, Role
from tests.simnet.faults import partition


class TestBasicElection:
    def test_elects_exactly_one_leader(self):
        cluster = RaftCluster(5, seed=0)
        lid = cluster.run_until_leader()
        leaders = [r for r in cluster.alive_nodes() if r.is_leader]
        assert len(leaders) == 1
        assert leaders[0].node_id == lid

    def test_single_node_cluster_self_elects(self):
        cluster = RaftCluster(1, seed=1)
        lid = cluster.run_until_leader()
        assert lid == 0

    def test_three_node_cluster(self):
        cluster = RaftCluster(3, seed=2)
        cluster.run_until_leader()

    def test_leader_stable_without_faults(self):
        cluster = RaftCluster(5, seed=3)
        lid = cluster.run_until_leader()
        term = cluster.node(lid).current_term
        cluster.run_for(5_000.0)
        assert cluster.leader_id() == lid
        assert cluster.node(lid).current_term == term

    def test_followers_learn_leader_hint(self):
        cluster = RaftCluster(5, seed=4)
        lid = cluster.run_until_leader()
        cluster.run_for(500.0)
        for node in cluster.alive_nodes():
            assert node.leader_hint == lid

    def test_textbook_mode_also_elects(self):
        cluster = RaftCluster(5, seed=5, pre_election_wait=False)
        cluster.run_until_leader()

    def test_paper_mode_slower_than_textbook(self):
        """The sequential candidate wait delays the first election."""
        times = {}
        for mode in (True, False):
            elected = []
            for seed in range(8):
                c = RaftCluster(5, seed=seed, pre_election_wait=mode)
                c.run_until_leader()
                elected.append(c.leader_events[0][0])
            times[mode] = sum(elected) / len(elected)
        assert times[True] > times[False]


class TestLeaderCrash:
    def test_new_leader_after_crash(self):
        cluster = RaftCluster(5, seed=10)
        old = cluster.run_until_leader()
        old_term = cluster.node(old).current_term
        cluster.crash(old)
        new = cluster.run_until_leader()
        assert new != old
        assert cluster.node(new).current_term > old_term

    def test_majority_crash_prevents_election(self):
        cluster = RaftCluster(5, seed=11)
        lid = cluster.run_until_leader()
        for node_id in [i for i in range(5)][:3]:
            cluster.crash(node_id)
        if lid in (0, 1, 2):
            # Remaining two nodes can never reach quorum (3 of 5).
            cluster.run_for(10_000.0)
            assert cluster.leader_id() is None

    def test_recovered_leader_steps_down(self):
        cluster = RaftCluster(5, seed=12)
        old = cluster.run_until_leader()
        cluster.crash(old)
        new = cluster.run_until_leader()
        cluster.recover(old)
        cluster.run_for(3_000.0)
        assert cluster.node(old).role is not Role.LEADER
        assert cluster.leader_id() == cluster.run_until_leader()

    def test_sequential_crashes_until_minority(self):
        cluster = RaftCluster(5, seed=13)
        crashed = []
        for _ in range(2):  # crash two leaders; 3 of 5 still a majority
            lid = cluster.run_until_leader()
            cluster.crash(lid)
            crashed.append(lid)
        final = cluster.run_until_leader()
        assert final not in crashed


class TestElectionSafety:
    def test_at_most_one_leader_per_term_under_random_crashes(self):
        """Election Safety: at most one leader elected per term (Fig. 2
        invariant), checked over randomized crash/recover schedules."""
        for seed in range(10):
            cluster = RaftCluster(5, seed=seed, timeout_base_ms=50.0)
            rng = cluster.rng
            t = 0.0
            for _ in range(8):
                t += float(rng.uniform(100.0, 600.0))
                victim = int(rng.integers(5))
                action = rng.random()
                if action < 0.6 and not cluster.network.is_crashed(victim):
                    alive = len(cluster.network.alive_ids())
                    if alive > 3:  # keep a quorum possible
                        cluster.sim.run_until(t)
                        cluster.crash(victim)
                elif cluster.network.is_crashed(victim):
                    cluster.sim.run_until(t)
                    cluster.recover(victim)
            cluster.run_for(5_000.0)
            for term, winners in cluster.leaders_by_term().items():
                assert len(winners) == 1, (seed, term, winners)

    def test_partition_minority_cannot_elect(self):
        cluster = RaftCluster(5, seed=20)
        lid = cluster.run_until_leader()
        minority = [lid, (lid + 1) % 5]
        majority = [i for i in range(5) if i not in minority]
        partition(cluster.sim, cluster.network, [minority, majority], 5_000.0)
        cluster.run_for(5_000.0)
        majority_leaders = [
            i for i in majority if cluster.node(i).is_leader
        ]
        assert len(majority_leaders) == 1
        # The old leader may still think it leads (stale term) but cannot
        # commit anything; after healing it steps down.
        cluster.run_for(3_000.0)
        assert cluster.leader_id() == majority_leaders[0] or (
            cluster.node(majority_leaders[0]).current_term
            <= cluster.node(cluster.leader_id()).current_term
        )
