"""A crashed follower recovers mid-round and catches up via its durable log."""

from repro.core.topology import Topology
from repro.twolayer_raft.system import TwoLayerRaftSystem


def build_system(seed=0):
    # Small heartbeat relative to the election timeout (~U(T, 2T)) so a
    # recovered follower hears from its leader well before it could
    # plausibly start an election of its own.
    system = TwoLayerRaftSystem(
        Topology.by_group_count(6, 2),
        timeout_base_ms=100.0, heartbeat_interval_ms=25.0, seed=seed,
    )
    system.stabilize()
    system.run_for(500.0)
    return system


def pick_follower(system, gi=0):
    fed = system.fed_leader()
    sub = system.subgroup_leader(gi)
    return next(
        pid for pid in system.topology.groups[gi] if pid not in (fed, sub)
    )


class TestFollowerRecovery:
    def test_recovered_follower_catches_up_before_election_timeout(self):
        system = build_system(seed=3)
        gi = 0
        leader = system.subgroup_leader(gi)
        victim = pick_follower(system, gi)
        vraft = system.peers[victim].sub_raft
        lraft = system.peers[leader].sub_raft
        term_before = vraft.current_term
        log_before = vraft.log.last_index

        system.crash(victim)
        # While the victim is down, the survivors commit new entries on
        # their quorum (group of 3 tolerates 1 crash).
        for i in range(3):
            assert lraft.propose(("chaos-test", i)) is not None
        system.run_for(300.0)
        assert lraft.commit_index >= log_before + 3
        # The victim saw none of it; its durable log froze at the crash.
        assert vraft.log.last_index == log_before

        system.network.recover(victim)
        # One election-timeout span (timeouts ~ U(100, 200) ms): the
        # first heartbeats must re-ship the missed entries.
        system.run_for(200.0)
        assert vraft.log.last_index == lraft.log.last_index
        assert vraft.commit_index >= log_before + 3
        # Catch-up came from the durable log + AppendEntries, not from a
        # disruptive re-election: same leader, same term.
        assert system.subgroup_leader(gi) == leader
        assert vraft.current_term == term_before

    def test_recovery_keeps_durable_term_and_log_prefix(self):
        system = build_system(seed=11)
        gi = 1
        leader = system.subgroup_leader(gi)
        victim = pick_follower(system, gi)
        vraft = system.peers[victim].sub_raft
        prefix = [
            (i, vraft.log.get(i).command)
            for i in range(1, vraft.log.last_index + 1)
        ]
        term_before = vraft.current_term

        system.crash(victim)
        system.run_for(150.0)
        system.network.recover(victim)
        system.run_for(250.0)

        # Durable state survived the restart: term never went backwards
        # and every pre-crash entry is still in place.
        assert vraft.current_term >= term_before
        for i, cmd in prefix:
            assert vraft.log.get(i).command == cmd

    def test_follower_outage_never_disturbs_leadership(self):
        system = build_system(seed=7)
        fed_before = system.fed_leader()
        subs_before = [
            system.subgroup_leader(gi)
            for gi in range(system.topology.n_groups)
        ]
        victim = pick_follower(system, 0)
        system.crash(victim)
        system.run_for(400.0)
        system.network.recover(victim)
        system.run_for(400.0)
        assert system.fed_leader() == fed_before
        assert [
            system.subgroup_leader(gi)
            for gi in range(system.topology.n_groups)
        ] == subs_before
