"""Targeted edge-case tests for RaftNode internals."""

import numpy as np
import pytest

from repro.raft import (
    AppendEntries,
    AppendEntriesReply,
    LogEntry,
    RaftCluster,
    RaftTiming,
    RequestVote,
)


def stable_cluster(n=3, seed=0, **kw):
    cluster = RaftCluster(n, seed=seed, **kw)
    cluster.run_until_leader()
    cluster.run_for(500.0)
    return cluster


class TestVoteRules:
    def test_stale_term_vote_denied(self):
        cluster = stable_cluster()
        lid = cluster.leader_id()
        follower = next(i for i in range(3) if i != lid)
        node = cluster.node(follower)
        stale = RequestVote(term=0, candidate_id=99, last_log_index=99, last_log_term=99)
        before = node.voted_for
        node._on_request_vote(lid, stale)
        assert node.voted_for == before  # not granted to a stale term

    def test_out_of_date_log_denied(self):
        cluster = stable_cluster()
        cluster.propose(("data",))
        cluster.run_for(500.0)
        lid = cluster.leader_id()
        follower = next(i for i in range(3) if i != lid)
        node = cluster.node(follower)
        # Candidate with an empty log at a future term: term bumps but no
        # vote granted (log not up to date).
        msg = RequestVote(
            term=node.current_term + 5, candidate_id=99,
            last_log_index=0, last_log_term=0,
        )
        node._on_request_vote(lid, msg)
        assert node.voted_for is None
        assert node.current_term == msg.term  # term still adopted

    def test_repeat_vote_same_candidate_regranted(self):
        cluster = stable_cluster()
        lid = cluster.leader_id()
        node = cluster.node(next(i for i in range(3) if i != lid))
        term = node.current_term + 1
        msg = RequestVote(
            term=term, candidate_id=lid,
            last_log_index=node.log.last_index + 10,
            last_log_term=node.log.last_term + 10,
        )
        node._on_request_vote(lid, msg)
        assert node.voted_for == lid
        node._on_request_vote(lid, msg)  # retransmission
        assert node.voted_for == lid  # unchanged, no crash


class TestAppendRules:
    def test_stale_append_rejected(self):
        cluster = stable_cluster()
        lid = cluster.leader_id()
        node = cluster.node(next(i for i in range(3) if i != lid))
        stale = AppendEntries(
            term=0, leader_id=99, prev_log_index=0, prev_log_term=0,
            entries=(), leader_commit=0,
        )
        term_before = node.current_term
        node._on_append_entries(99 % 3, stale)
        assert node.current_term == term_before
        assert node.leader_hint != 99

    def test_leader_ignores_stale_reply(self):
        cluster = stable_cluster()
        lid = cluster.leader_id()
        leader = cluster.node(lid)
        follower = next(i for i in range(3) if i != lid)
        match_before = dict(leader._match_index)
        stale = AppendEntriesReply(
            term=leader.current_term - 1, follower_id=follower,
            success=True, match_index=999,
        )
        leader._on_append_reply(stale)
        assert leader._match_index == match_before


class TestMisc:
    def test_unknown_message_type_raises(self):
        cluster = stable_cluster()
        with pytest.raises(TypeError):
            cluster.node(0).handle(1, "garbage")

    def test_remove_nonmember_noop(self):
        cluster = stable_cluster()
        lid = cluster.leader_id()
        assert cluster.node(lid).remove_server(42) == -1

    def test_quorum_single_node(self):
        cluster = RaftCluster(1, seed=5)
        cluster.run_until_leader()
        assert cluster.node(0).quorum() == 1

    def test_timing_validation(self):
        with pytest.raises(ValueError):
            RaftTiming(timeout_base_ms=0.0)
        with pytest.raises(ValueError):
            RaftTiming(timeout_base_ms=50.0, heartbeat_interval_ms=0.0)
        t = RaftTiming(timeout_base_ms=50.0)
        assert t.heartbeat_ms == 50.0
        samples = [t.sample_timeout(np.random.default_rng(0)) for _ in range(50)]
        assert all(50.0 <= s <= 100.0 for s in samples)
