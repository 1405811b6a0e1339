"""Raft safety invariants under randomized fault schedules (fuzzer).

Explores random mixes of crashes, recoveries, partitions, client
proposals and (optionally) single-server membership changes, then checks
the four safety properties of the Raft paper:

1. **Election Safety** — at most one leader per term.
2. **Log Matching** — if two logs share (index, term) they are identical
   up to that index.
3. **Leader Completeness** — every entry known applied is present in the
   log of every later-term leader.
4. **State Machine Safety** — no two nodes apply different commands at
   the same index.
"""

import math

import numpy as np
import pytest

from repro.chaos import FaultSchedule, PartitionWindow
from repro.raft import RaftCluster
from tests.raft.test_extensions import PreVoteCluster


def change_membership(cluster: RaftCluster, node: int) -> None:
    """Through the leader: remove ``node`` if it is a member (keeping at
    least three), add it back otherwise.  The leader may refuse."""
    lid = cluster.leader_id()
    if lid is None:
        return
    leader = cluster.node(lid)
    if node not in leader.members:
        leader.add_server(node)
    elif len(leader.members) > 3:
        leader.remove_server(node)


def readmit_everyone(cluster: RaftCluster, max_ms: float = 30_000.0) -> None:
    """Add removed nodes back one at a time until the config is full."""
    everyone = set(range(len(cluster.hosts)))
    deadline = cluster.sim.now + max_ms
    while cluster.sim.now < deadline:
        lid = cluster.leader_id()
        if lid is not None:
            missing = everyone - cluster.node(lid).members
            if not missing:
                return
            cluster.node(lid).add_server(min(missing))
        cluster.run_for(200.0)


def random_schedule(
    cluster: RaftCluster, seed: int, steps: int = 25, membership: bool = False,
) -> None:
    """Drive a random fault/proposal schedule; with ``membership`` a
    tenth of the steps are pairs of single-server changes, every removed
    node is re-added after the heal, and ten more proposals follow.

    No draw depends on the cluster, so the whole plan is drawn up front,
    in step order: a random two-way partition holds from its step to the
    next partition or heal step (the last one to the final heal), and
    the partitions are armed as one schedule of windows."""
    rng = np.random.default_rng(seed)
    n = len(cluster.hosts)
    plan, windows, cut = [], [], None  # cut: the open (start, groups)
    t = cluster.sim.now
    for _ in range(steps):
        t += float(rng.uniform(80.0, 400.0))
        action = rng.random()
        victim = int(rng.integers(n))
        second = None
        if 0.50 <= action < 0.75 and cut is not None:
            windows.append(PartitionWindow(cut[0], t, cut[1]))
            cut = None
        if 0.50 <= action < 0.62:
            # Random two-way partition for a while.
            members = list(range(n))
            rng.shuffle(members)
            at = int(rng.integers(1, n))
            cut = (t, (tuple(members[:at]), tuple(members[at:])))
        elif membership and action >= 0.90:
            second = int(rng.integers(n))
        plan.append((t, action, victim, second))
    if cut is not None:
        # The final heal comes after the last step's own sends.
        windows.append(PartitionWindow(cut[0], math.nextafter(t, math.inf),
                                       cut[1]))
    FaultSchedule(windows).arm(cluster.sim, cluster.network)
    proposal = 0
    for t, action, victim, second in plan:
        cluster.sim.run_until(t)
        if action < 0.30:
            alive = len(cluster.network.alive_ids())
            if alive > (n // 2 + 1) and not cluster.network.is_crashed(victim):
                cluster.crash(victim)
        elif action < 0.50:
            if cluster.network.is_crashed(victim):
                cluster.recover(victim)
        elif action < 0.75:
            pass  # a partition window opens or closes here
        elif second is not None:
            # Two changes at one instant, as a FedAvg leader swapping a
            # subgroup's seat-holder issues them.
            change_membership(cluster, victim)
            change_membership(cluster, second)
        else:
            idx = cluster.propose(("op", proposal))
            if idx is not None:
                proposal += 1
    # Heal everything (the last window has closed) and let the cluster
    # converge.
    for i in range(n):
        if cluster.network.is_crashed(i):
            cluster.recover(i)
    cluster.run_for(6_000.0)
    if membership:
        readmit_everyone(cluster)
        for i in range(10):
            cluster.propose(("after", i))
            cluster.run_for(100.0)
        cluster.run_for(2_000.0)


def check_election_safety(cluster: RaftCluster) -> None:
    for term, winners in cluster.leaders_by_term().items():
        assert len(winners) == 1, f"term {term} had leaders {winners}"


def check_log_matching(cluster: RaftCluster) -> None:
    logs = [h.raft.log for h in cluster.hosts]
    top = min(log.last_index for log in logs)
    for idx in range(1, top + 1):
        cells = {(log.term_at(idx), repr(log.get(idx).command)) for log in logs}
        if len(cells) > 1:
            # Divergence is only legal above every commit index.
            min_commit = min(h.raft.commit_index for h in cluster.hosts)
            assert idx > min_commit, (
                f"index {idx} diverges below commit {min_commit}: {cells}"
            )


def check_state_machine_safety(cluster: RaftCluster) -> None:
    by_index: dict[int, set[str]] = {}
    for node_id, applied in cluster.applied.items():
        for index, command in applied:
            by_index.setdefault(index, set()).add(repr(command))
    for index, commands in by_index.items():
        assert len(commands) == 1, (
            f"index {index} applied as {commands} on different nodes"
        )


def check_leader_completeness(cluster: RaftCluster) -> None:
    """Applied entries must be in the current leader's log."""
    lid = cluster.leader_id()
    if lid is None:
        return
    log = cluster.hosts[lid].raft.log
    for node_id, applied in cluster.applied.items():
        for index, command in applied:
            if index <= log.last_index:
                assert repr(log.get(index).command) == repr(command), (
                    f"leader {lid} disagrees at applied index {index}"
                )
            else:
                pytest.fail(
                    f"leader {lid} is missing applied index {index}"
                )


def check_all(cluster: RaftCluster) -> None:
    check_election_safety(cluster)
    check_log_matching(cluster)
    check_state_machine_safety(cluster)
    check_leader_completeness(cluster)


@pytest.mark.parametrize("seed", range(12))
def test_invariants_under_random_schedules(seed):
    cluster = RaftCluster(5, seed=seed, timeout_base_ms=50.0)
    cluster.run_until_leader()
    random_schedule(cluster, seed=seed * 1000 + 7)
    check_all(cluster)


@pytest.mark.parametrize("seed", range(6))
def test_invariants_with_textbook_elections(seed):
    cluster = RaftCluster(5, seed=seed, pre_election_wait=False)
    cluster.run_until_leader()
    random_schedule(cluster, seed=seed * 77 + 3, steps=20)
    check_all(cluster)


@pytest.mark.parametrize("seed", range(4))
def test_invariants_with_prevote(seed):
    cluster = PreVoteCluster(5, seed=seed)
    cluster.run_until_leader()
    random_schedule(cluster, seed=seed * 31 + 11, steps=20)
    check_all(cluster)


@pytest.mark.parametrize("pre_election_wait", [True, False])
@pytest.mark.parametrize("pre_vote", [False, True])
# Seeds 66, 77 and 94 applied different commands at one index while a
# leader could still start a second change before the first committed.
@pytest.mark.parametrize("seed", [0, 1, 2, 66, 77, 94])
def test_invariants_with_membership_changes(seed, pre_vote, pre_election_wait):
    make = PreVoteCluster if pre_vote else RaftCluster
    cluster = make(5, seed=seed, pre_election_wait=pre_election_wait)
    cluster.run_until_leader()
    random_schedule(cluster, seed=seed * 53 + 5, steps=20, membership=True)
    check_all(cluster)
