"""Tests for the PreVote extension."""

import numpy as np
import pytest

from repro.raft import RaftCluster, RaftTiming, Role
from repro.raft.cluster import RaftHost
from tests.simnet.faults import partition


class PreVoteCluster(RaftCluster):
    """RaftCluster with PreVote enabled on every node."""

    def __init__(self, n, **kw):
        super().__init__(n, **kw)
        for host in self.hosts:
            host.raft.pre_vote = True


class TestPreVote:
    def test_cluster_with_prevote_elects_leader(self):
        cluster = PreVoteCluster(5, seed=0, pre_election_wait=False)
        cluster.run_until_leader()

    def test_prevote_cluster_survives_leader_crash(self):
        cluster = PreVoteCluster(5, seed=1, pre_election_wait=False)
        old = cluster.run_until_leader()
        cluster.crash(old)
        new = cluster.run_until_leader()
        assert new != old

    def test_partitioned_node_does_not_inflate_term(self):
        """The signature PreVote property: a node isolated long enough to
        time out repeatedly must NOT return with a huge term and depose
        the healthy leader."""
        cluster = PreVoteCluster(5, seed=2, pre_election_wait=False)
        lid = cluster.run_until_leader()
        victim = next(i for i in range(5) if i != lid)
        others = [i for i in range(5) if i != victim]
        partition(cluster.sim, cluster.network, [[victim], others], 10_000.0)
        cluster.run_for(10_000.0)  # victim times out ~dozens of times
        term_before_heal = cluster.node(lid).current_term
        # Isolated: every prevote fails, so its term never moved.
        assert cluster.node(victim).current_term == term_before_heal
        cluster.run_for(2_000.0)  # healed
        # The healthy leader is still the leader, same term.
        assert cluster.leader_id() == lid
        assert cluster.node(lid).current_term == term_before_heal

    def test_without_prevote_partition_inflates_term(self):
        """Control for the test above: classic Raft keeps incrementing."""
        cluster = RaftCluster(5, seed=3, pre_election_wait=False)
        lid = cluster.run_until_leader()
        victim = next(i for i in range(5) if i != lid)
        others = [i for i in range(5) if i != victim]
        partition(cluster.sim, cluster.network, [[victim], others], 10_000.0)
        cluster.run_for(10_000.0)
        assert cluster.node(victim).current_term > cluster.node(lid).current_term

    def test_prevote_denied_while_leader_healthy(self):
        """A lagging node probing while heartbeats flow gets no grants."""
        cluster = PreVoteCluster(3, seed=4, pre_election_wait=False)
        lid = cluster.run_until_leader()
        cluster.run_for(1_000.0)
        follower = next(i for i in range(3) if i != lid)
        node = cluster.node(follower)
        # Force an (unjustified) election attempt right now.
        node._begin_election()
        term = cluster.node(lid).current_term
        cluster.run_for(2_000.0)
        assert cluster.leader_id() == lid
        assert cluster.node(lid).current_term == term
