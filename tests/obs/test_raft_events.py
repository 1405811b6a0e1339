"""A forced Raft election emits the expected observable sequence."""

from repro.obs import observe, to_prometheus
from repro.raft.cluster import RaftCluster


def test_first_election_event_sequence():
    """timeout -> candidate -> granted votes -> election win, in seq order."""
    with observe() as obs:
        cluster = RaftCluster(3, seed=7)
        leader = cluster.run_until_leader()

    assert leader == cluster.leader_id()
    events = obs.events
    names = [e.name for e in events]
    assert "raft.timeout" in names
    assert "raft.election.start" in names
    assert "raft.election.win" in names

    win = next(e for e in events if e.name == "raft.election.win")
    assert win.node == leader
    # A 3-node cluster's winner counts its own vote plus >= 1 grant.
    assert win.fields["votes"] >= 2

    # The winner became candidate before winning, and won before any
    # event could mark it leader otherwise.
    cand = next(
        e for e in events
        if e.name == "raft.role" and e.node == leader
        and e.fields["role"] == "candidate"
    )
    lead = next(
        e for e in events
        if e.name == "raft.role" and e.node == leader
        and e.fields["role"] == "leader"
    )
    grants = [
        e for e in events
        if e.name == "raft.vote" and e.fields["granted"]
        and e.fields["candidate"] == leader
    ]
    assert grants, "peers must grant votes to the winner"
    assert cand.seq < min(g.seq for g in grants) < win.seq
    assert cand.seq < lead.seq <= win.seq + 1
    assert win.fields["term"] >= 1

    # The election counter is the reduction of the start events.
    starts = [e for e in events if e.name == "raft.election.start"]
    total = sum(
        float(line.rsplit(" ", 1)[1])
        for line in to_prometheus(events).splitlines()
        if line.startswith("raft_elections_total{")
    )
    assert total == len(starts)


def test_reelection_after_leader_crash_is_observable():
    with observe() as obs:
        cluster = RaftCluster(5, seed=3)
        first = cluster.run_until_leader()
        crash_seq = obs.bus._seq
        cluster.network.crash(first)
        second = cluster.run_until_leader()

    assert second != first
    after = [e for e in obs.events if e.seq >= crash_seq]
    assert any(e.name == "net.crash" and e.node == first for e in after)
    wins = [e for e in after if e.name == "raft.election.win"]
    assert any(w.node == second for w in wins)
    # The crashed leader's heartbeats to it now drop.
    assert any(e.name == "net.drop" for e in after)
