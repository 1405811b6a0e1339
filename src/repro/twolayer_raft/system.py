"""The two-layer Raft system on the simulated network (Sec. V).

Each physical peer is a :class:`PeerProcess` hosting up to two Raft
endpoints — one for its subgroup, one for the FedAvg layer — multiplexed
over the same network address with group-tagged envelopes (the stand-in
for the paper's per-layer gRPC channels).

Recovery choreography implemented here:

- **Subgroup leader crash** (Sec. V-A1): followers elect a new leader
  (Raft); the post-election callback creates a passive FedAvg endpoint
  configured from the subgroup state machine's replicated FedAvg-layer
  configuration, and polls the FedAvg layer with
  :class:`~repro.twolayer_raft.config.JoinRequest` every
  ``join_poll_interval_ms`` (100 ms in the paper) until the FedAvg leader
  commits an AddServer entry for it.
- **FedAvg leader crash** (Sec. V-B1): both elections run concurrently;
  the joiner's poll keeps failing until the FedAvg layer has a leader
  again, then the join proceeds as above.
- **Follower crashes**: tolerated by plain Raft quorums.

Per Sec. VII-D the crashed old leader is *not* removed from the FedAvg
configuration — membership only grows, and the quorum grows with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from ..core.topology import Topology
from ..raft.messages import LogEntry
from ..raft.node import RaftNode
from ..raft.timers import RaftTiming
from ..simnet import FixedLatency, Network, SimNode, Simulator, TraceRecorder
from ..simnet.network import DEFAULT_DELAY_MS
from .config import FEDAVG_CONFIG, JoinRedirect, JoinRequest

#: how often a new subgroup leader retries joining the FedAvg layer.
JOIN_POLL_INTERVAL_MS = 100.0
#: how often a subgroup leader re-commits the FedAvg configuration to its
#: subgroup log.
CONFIG_COMMIT_INTERVAL_MS = 250.0


@dataclass(frozen=True)
class Envelope:
    """Group-tagged wrapper multiplexing two Raft groups over one address."""

    group: str
    payload: Any

    def size_bits(self) -> float:
        inner = getattr(self.payload, "size_bits", None)
        return 32.0 + (inner() if callable(inner) else 0.0)


@dataclass(frozen=True)
class SystemEvent:
    """Timestamped observable used by the recovery measurements."""

    time: float
    kind: str  # 'sub_leader' | 'fed_leader' | 'joined_fedavg'
    peer: int
    group: int | None = None
    term: int | None = None


class _EndpointTransport:
    """Adapter giving a RaftNode endpoint the Transport interface."""

    def __init__(self, peer: "PeerProcess", group: str) -> None:
        self.peer = peer
        self.group = group
        self.node_id = peer.node_id

    def send(self, dst: int, msg: Any, size_bits: float = 0.0, kind: str = "msg") -> None:
        self.peer.send(
            dst, Envelope(self.group, msg), size_bits=size_bits + 32.0, kind=kind
        )

    def set_timer(self, delay_ms: float, callback):
        return self.peer.set_timer(delay_ms, callback)

    def cancel_timer(self, handle) -> None:
        self.peer.cancel_timer(handle)

    @property
    def now(self) -> float:
        return self.peer.sim.now


class PeerProcess(SimNode):
    """One physical peer: subgroup Raft endpoint + optional FedAvg endpoint."""

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        network: Network,
        system: "TwoLayerRaftSystem",
        group_index: int,
    ) -> None:
        super().__init__(node_id, sim, network)
        self.system = system
        self.group_index = group_index
        self.sub_raft: Optional[RaftNode] = None
        self.fed_raft: Optional[RaftNode] = None
        #: FedAvg-layer configuration learned from the subgroup state
        #: machine (falls back to the bootstrap configuration).
        self.fed_config: tuple[int, ...] = ()
        self._fed_was_member = False
        self._join_timer = None
        self._config_timer = None

    # ------------------------------------------------------------- messaging
    def on_message(self, src: int, msg: Any) -> None:
        if not isinstance(msg, Envelope):
            raise TypeError(f"expected Envelope, got {type(msg).__name__}")
        payload = msg.payload
        if msg.group == "sys":
            self.system.on_system_message(self, src, payload)
        elif msg.group == "fed":
            if self.fed_raft is not None:
                self.fed_raft.handle(src, payload)
        elif msg.group == f"sub{self.group_index}":
            if self.sub_raft is not None:
                self.sub_raft.handle(src, payload)
        # Envelopes for a subgroup this peer doesn't belong to are stale
        # (e.g. pre-crash traffic) and are dropped silently.

    # ----------------------------------------------------------------- crash
    def on_crash(self) -> None:
        super().on_crash()  # cancels all timers (both endpoints')
        self._join_timer = None
        self._config_timer = None
        if self.sub_raft is not None:
            self.sub_raft.stop()
        if self.fed_raft is not None:
            self.fed_raft.stop()

    def on_recover(self) -> None:
        super().on_recover()
        if self.sub_raft is not None:
            self.sub_raft.restart()
        if self.fed_raft is not None and self.fed_raft.is_member:
            self.fed_raft.restart()


class TwoLayerRaftSystem:
    """Builds and operates the full two-layer Raft network.

    Parameters mirror the paper's evaluation setup (Sec. VI-B1): five
    subgroups of five peers (``Topology.by_group_count(25, 5)``), 15 ms
    one-way delay, timeouts ~ U(T, 2T).
    """

    def __init__(
        self,
        topology: Topology,
        timeout_base_ms: float = 50.0,
        seed: int = 0,
        pre_election_wait: bool = True,
        heartbeat_interval_ms: float | None = None,
        remove_replaced_leaders: bool = False,
    ) -> None:
        self.topology = topology
        self.sim = Simulator()
        self.rng = np.random.default_rng(seed)
        self.trace = TraceRecorder()
        self.network = Network(
            self.sim, latency=FixedLatency(DEFAULT_DELAY_MS), rng=self.rng,
            trace=self.trace,
        )
        self.network.trace_id = f"two_layer_raft:s{seed}"
        self.timing = RaftTiming(
            timeout_base_ms=timeout_base_ms,
            pre_election_wait=pre_election_wait,
            heartbeat_interval_ms=heartbeat_interval_ms,
        )
        #: EXTENSION (off by default — the paper only ever *adds*
        #: members, Sec. VII-D): when a subgroup's new leader joins the
        #: FedAvg layer, evict that subgroup's previous seat-holder from
        #: the configuration.  Keeps the FedAvg quorum at m and lets the
        #: system survive arbitrarily many sequential leader crashes.
        self.remove_replaced_leaders = remove_replaced_leaders
        self.events: list[SystemEvent] = []

        self.peers: dict[int, PeerProcess] = {}
        #: Live subgroup membership (mutated by depart/move_peer/add_peer
        #: churn); ``self.topology`` stays the immutable bootstrap layout.
        self.group_members: list[list[int]] = [list(g) for g in topology.groups]
        for gi, group in enumerate(topology.groups):
            for pid in group:
                self.peers[pid] = PeerProcess(pid, self.sim, self.network, self, gi)

        bootstrap_fed = tuple(topology.leaders)
        for gi, group in enumerate(topology.groups):
            for pid in group:
                peer = self.peers[pid]
                peer.fed_config = bootstrap_fed
                peer.sub_raft = RaftNode(
                    transport=_EndpointTransport(peer, f"sub{gi}"),
                    members=list(group),
                    timing=self.timing,
                    rng=np.random.default_rng(self.rng.integers(2**63)),
                    on_apply=self._make_sub_apply(peer),
                    on_leader=self._make_sub_leader_cb(peer),
                    bootstrap_leader=(pid == topology.leaders[gi]),
                    trace_kind=f"raft.sub{gi}",
                )
                peer.sub_raft.start()
        # Initial subgroup leaders bootstrap the FedAvg layer directly.
        for pid in topology.leaders:
            self._ensure_fed_endpoint(self.peers[pid], member=True)

    # ----------------------------------------------------- endpoint plumbing
    def _make_sub_apply(self, peer: PeerProcess):
        def apply(index: int, entry: LogEntry) -> None:
            cmd = entry.command
            if isinstance(cmd, tuple) and cmd and cmd[0] == FEDAVG_CONFIG:
                peer.fed_config = tuple(cmd[1])

        return apply

    def _make_sub_leader_cb(self, peer: PeerProcess):
        def on_leader(term: int) -> None:
            self.events.append(
                SystemEvent(
                    time=self.sim.now,
                    kind="sub_leader",
                    peer=peer.node_id,
                    group=peer.group_index,
                    term=term,
                )
            )
            self._on_subgroup_leader_elected(peer)

        return on_leader

    def _make_fed_leader_cb(self, peer: PeerProcess):
        def on_leader(term: int) -> None:
            self.events.append(
                SystemEvent(
                    time=self.sim.now, kind="fed_leader", peer=peer.node_id, term=term
                )
            )

        return on_leader

    def _make_fed_config_cb(self, peer: PeerProcess):
        def on_config(members: frozenset[int]) -> None:
            is_member = peer.node_id in members
            if is_member and not peer._fed_was_member:
                self.events.append(
                    SystemEvent(
                        time=self.sim.now, kind="joined_fedavg", peer=peer.node_id
                    )
                )
                self._stop_join_polling(peer)
            peer._fed_was_member = is_member

        return on_config

    def _ensure_fed_endpoint(self, peer: PeerProcess, member: bool) -> RaftNode:
        if peer.fed_raft is None:
            # A bootstrap member includes itself; a joiner's learned
            # config typically does not (it becomes a member when the
            # FedAvg leader's AddServer entry reaches it).
            members = list(peer.fed_config)
            peer.fed_raft = RaftNode(
                transport=_EndpointTransport(peer, "fed"),
                members=members,
                timing=self.timing,
                rng=np.random.default_rng(self.rng.integers(2**63)),
                on_leader=self._make_fed_leader_cb(peer),
                on_config=self._make_fed_config_cb(peer),
                bootstrap_leader=(peer.node_id == self.topology.leaders[0]),
                # In cleanup mode an evicted (recovered) seat-holder still
                # believes it is a member; PreVote stops its stale
                # election probes from deposing the healthy FedAvg leader.
                pre_vote=self.remove_replaced_leaders,
                trace_kind="raft.fed",
            )
            # Prime the join detector: a bootstrap member is already in.
            peer._fed_was_member = peer.fed_raft.is_member
            peer.fed_raft.start()
        return peer.fed_raft

    # --------------------------------------------------- post-election logic
    def _on_subgroup_leader_elected(self, peer: PeerProcess) -> None:
        """Sec. V-A1: the new leader re-joins the FedAvg layer.

        The peer's *own* view of the FedAvg membership can be stale (a
        recovered ex-leader may have missed its eviction), so membership
        is never trusted locally: polling only stops once this peer
        leads the FedAvg layer itself or hears from a FedAvg leader
        while being a member.
        """
        fed = self._ensure_fed_endpoint(peer, member=False)
        if not fed.is_leader:
            self._start_join_polling(peer)
        self._start_config_commits(peer)

    def _start_join_polling(self, peer: PeerProcess) -> None:
        """Poll for a FedAvg leader every 100 ms (Sec. VI-B3).

        The probe is a free-running periodic timer, so the first check
        after an election lands at a random phase of the poll period —
        as in the paper, where the presence check is not synchronized
        with the subgroup election.
        """
        self._stop_join_polling(peer)
        poll_start = self.sim.now

        def poll() -> None:
            fed = peer.fed_raft
            if fed is None:
                peer._join_timer = None
                return
            joined = fed.is_leader or (
                fed.is_member and fed.last_leader_contact >= poll_start
            )
            if joined:
                peer._join_timer = None
                return
            if peer.sub_raft is None or not peer.sub_raft.is_leader:
                peer._join_timer = None  # lost subgroup leadership meanwhile
                return
            req = JoinRequest(peer_id=peer.node_id)
            target = fed.leader_hint
            if target is not None and target in self.peers and not self.network.is_crashed(target):
                peer.send(target, Envelope("sys", req), size_bits=req.size_bits(), kind="sys.join")
            else:
                for member in peer.fed_config:
                    if member != peer.node_id:
                        peer.send(
                            member,
                            Envelope("sys", req),
                            size_bits=req.size_bits(),
                            kind="sys.join",
                        )
            peer._join_timer = peer.set_timer(JOIN_POLL_INTERVAL_MS, poll)

        first_offset = float(self.rng.uniform(0.0, JOIN_POLL_INTERVAL_MS))
        peer._join_timer = peer.set_timer(first_offset, poll)

    def _stop_join_polling(self, peer: PeerProcess) -> None:
        if peer._join_timer is not None:
            peer.cancel_timer(peer._join_timer)
            peer._join_timer = None

    def _start_config_commits(self, peer: PeerProcess) -> None:
        """Keep the FedAvg config replicated in the subgroup log.

        The leader checks periodically but only *proposes* when the
        configuration changed since the last commit — steady-state
        subgroups carry no config traffic (the paper replicates the
        config, not a heartbeat of it).
        """
        if peer._config_timer is not None:
            peer.cancel_timer(peer._config_timer)
            peer._config_timer = None
        last_committed: list[tuple[int, ...] | None] = [None]

        def commit() -> None:
            peer._config_timer = None
            if peer.sub_raft is None or not peer.sub_raft.is_leader:
                return
            if peer.fed_raft is not None and peer.fed_raft.members:
                config = tuple(sorted(peer.fed_raft.members))
            else:
                config = tuple(sorted(peer.fed_config))
            if config != last_committed[0]:
                peer.sub_raft.propose((FEDAVG_CONFIG, config))
                last_committed[0] = config
            peer._config_timer = peer.set_timer(
                CONFIG_COMMIT_INTERVAL_MS, commit
            )

        commit()

    # ------------------------------------------------------- system messages
    def on_system_message(self, peer: PeerProcess, src: int, msg: Any) -> None:
        if isinstance(msg, JoinRequest):
            fed = peer.fed_raft
            if fed is None:
                return
            if fed.is_leader:
                if self.remove_replaced_leaders and msg.peer_id not in fed.members:
                    # Evict the joining subgroup's previous seat-holder
                    # (never ourselves — a deposed-but-alive fed leader
                    # steps down through Raft, not via self-eviction).
                    group = set(
                        self.group_members[self.peers[msg.peer_id].group_index]
                    )
                    for old in sorted(fed.members & group):
                        if old != peer.node_id:
                            fed.remove_server(old)
                fed.add_server(msg.peer_id)
            elif fed.leader_hint is not None:
                reply = JoinRedirect(leader_id=fed.leader_hint)
                peer.send(
                    src,
                    Envelope("sys", reply),
                    size_bits=reply.size_bits(),
                    kind="sys.join",
                )
        elif isinstance(msg, JoinRedirect):
            if peer.fed_raft is not None:
                peer.fed_raft.leader_hint = msg.leader_id
        else:
            raise TypeError(f"unknown system message {type(msg).__name__}")

    # -------------------------------------------------------------- controls
    def run_for(self, ms: float) -> None:
        self.sim.run_until(self.sim.now + ms)

    def apply_schedule(self, schedule) -> None:
        """Arm a :class:`repro.chaos.FaultSchedule` starting *now*.

        Schedules are authored with ``t=0`` as the injection origin;
        they are shifted to the current virtual time so the system can
        stabilize first and the faults land on a running deployment.
        """
        schedule.validate_nodes(self.peers)
        schedule.shifted(self.sim.now).arm(self.sim, self.network)

    def crash(self, peer_id: int) -> None:
        self.network.crash(peer_id)

    def recover(self, peer_id: int) -> None:
        self.network.recover(peer_id)

    def subgroup_leader(self, gi: int) -> Optional[int]:
        """The unique alive leader of subgroup ``gi``, or None."""
        leaders = [
            pid
            for pid in self.group_members[gi]
            if not self.network.is_crashed(pid)
            and self.peers[pid].sub_raft is not None
            and self.peers[pid].sub_raft.is_leader
        ]
        return leaders[0] if len(leaders) == 1 else None

    def fed_leader(self) -> Optional[int]:
        """The unique alive FedAvg-layer leader, or None."""
        leaders = [
            pid
            for pid, peer in self.peers.items()
            if not self.network.is_crashed(pid)
            and peer.fed_raft is not None
            and peer.fed_raft.is_leader
        ]
        return leaders[0] if len(leaders) == 1 else None

    def fed_members_of(self, peer_id: int) -> frozenset[int]:
        fed = self.peers[peer_id].fed_raft
        return frozenset(fed.members) if fed is not None else frozenset()

    def stabilize(self, max_ms: float = 120_000.0) -> None:
        """Run until every subgroup and the FedAvg layer have leaders."""
        deadline = self.sim.now + max_ms

        def stable() -> bool:
            if self.fed_leader() is None:
                return False
            return all(
                self.subgroup_leader(gi) is not None
                for gi in range(len(self.group_members))
                if any(
                    not self.network.is_crashed(pid)
                    for pid in self.group_members[gi]
                )
            )

        step = 10.0
        while self.sim.now < deadline:
            if stable():
                return
            self.sim.run_until(self.sim.now + step)
        raise TimeoutError("two-layer Raft did not stabilize in time")

    # ------------------------------------------------- membership churn (Sec. V)
    def depart(self, peer_id: int) -> None:
        """Permanent departure (Leave churn): the peer never returns.

        The network-level crash is the observable signal; if the peer
        was a subgroup leader, Sec. V-A1 recovery kicks in (re-election,
        FedAvg re-join, and — in cleanup mode — eviction of its seat).
        The peer stays in ``group_members`` until its subgroup's Raft
        configuration drops it; callers that care run
        :meth:`reap_departed` after the dust settles.
        """
        if peer_id not in self.peers:
            raise ValueError(f"unknown peer {peer_id}")
        self.network.crash(peer_id)

    def reap_departed(self, peer_id: int) -> bool:
        """Drop a departed peer from its subgroup's Raft configuration.

        Single-server ``remove_server`` through the subgroup leader;
        returns True once the configuration no longer lists the peer.
        """
        peer = self.peers.get(peer_id)
        if peer is None:
            return True
        gi = peer.group_index
        deadline = self.sim.now + 30_000.0
        while self.sim.now < deadline:
            leader = self.subgroup_leader(gi)
            if leader is not None:
                sub = self.peers[leader].sub_raft
                if peer_id not in sub.members:
                    if peer_id in self.group_members[gi]:
                        self.group_members[gi].remove(peer_id)
                    return True
                sub.remove_server(peer_id)
            self.run_for(200.0)
        return False

    def _spawn_sub_endpoint(
        self, peer: PeerProcess, gi: int, members: list[int]
    ) -> None:
        """Attach a fresh passive subgroup-Raft endpoint bound to ``gi``."""
        peer.group_index = gi
        peer.sub_raft = RaftNode(
            transport=_EndpointTransport(peer, f"sub{gi}"),
            members=members,
            timing=self.timing,
            rng=np.random.default_rng(self.rng.integers(2**63)),
            on_apply=self._make_sub_apply(peer),
            on_leader=self._make_sub_leader_cb(peer),
            trace_kind=f"raft.sub{gi}",
        )
        peer.sub_raft.start()

    def move_peer(self, peer_id: int, to_group: int, max_ms: float = 30_000.0) -> bool:
        """Re-shard a follower into another subgroup, live.

        The paper's single-server membership change, twice: the source
        subgroup's leader commits ``remove_server``, then the peer's old
        endpoint is retired, a passive endpoint for the target subgroup
        spun up, and the target leader commits ``add_server``.  Returns
        True once the peer is a member of the target configuration.
        """
        peer = self.peers.get(peer_id)
        if peer is None:
            raise ValueError(f"unknown peer {peer_id}")
        from_group = peer.group_index
        if from_group == to_group:
            return True
        if self.network.is_crashed(peer_id):
            raise ValueError(f"peer {peer_id} is crashed; recover it first")
        if peer_id == self.subgroup_leader(from_group):
            raise ValueError(
                f"peer {peer_id} leads subgroup {from_group}; "
                "only followers move"
            )
        deadline = self.sim.now + max_ms

        # 1. Leave the source subgroup's configuration.  A planned move
        #    retires the old endpoint *first*: a removed server that
        #    keeps running never learns of its removal (the leader stops
        #    replicating to it) and its election timer would disrupt the
        #    source subgroup (Raft paper Sec. 4.2.3).
        if peer.sub_raft is not None:
            peer.sub_raft.stop()
        removed = False
        while self.sim.now < deadline:
            leader = self.subgroup_leader(from_group)
            if leader is not None:
                sub = self.peers[leader].sub_raft
                if peer_id not in sub.members:
                    removed = True
                    break
                sub.remove_server(peer_id)
            self.run_for(200.0)
        if not removed:
            return False
        if peer_id in self.group_members[from_group]:
            self.group_members[from_group].remove(peer_id)
        self.group_members[to_group].append(peer_id)

        # 2. Join the target subgroup as a passive endpoint; the target
        #    leader's AddServer entry activates it (config-on-append).
        seed_leader = self.subgroup_leader(to_group)
        known = (
            list(self.peers[seed_leader].sub_raft.members)
            if seed_leader is not None
            else [p for p in self.group_members[to_group] if p != peer_id]
        )
        self._spawn_sub_endpoint(peer, to_group, known)
        while self.sim.now < deadline:
            leader = self.subgroup_leader(to_group)
            if leader is not None:
                sub = self.peers[leader].sub_raft
                if peer_id in sub.members and peer.sub_raft.is_member:
                    return True
                sub.add_server(peer_id)
            self.run_for(200.0)
        return False

    def add_peer(self, new_id: int, to_group: int, max_ms: float = 30_000.0) -> bool:
        """A brand-new peer joins subgroup ``to_group`` (Join churn).

        Spawns the process, hands it the current FedAvg configuration,
        and drives the target leader's single-server ``add_server``
        until the new peer is an active member.
        """
        if new_id in self.peers:
            raise ValueError(f"peer id {new_id} already exists")
        if not 0 <= to_group < len(self.group_members):
            raise ValueError(f"no subgroup {to_group}")
        peer = PeerProcess(new_id, self.sim, self.network, self, to_group)
        self.peers[new_id] = peer
        self.group_members[to_group].append(new_id)
        seed_leader = self.subgroup_leader(to_group)
        if seed_leader is not None:
            peer.fed_config = tuple(self.peers[seed_leader].fed_config)
            known = list(self.peers[seed_leader].sub_raft.members)
        else:
            peer.fed_config = tuple(self.topology.leaders)
            known = [p for p in self.group_members[to_group] if p != new_id]
        self._spawn_sub_endpoint(peer, to_group, known)
        deadline = self.sim.now + max_ms
        while self.sim.now < deadline:
            leader = self.subgroup_leader(to_group)
            if leader is not None:
                sub = self.peers[leader].sub_raft
                if new_id in sub.members and peer.sub_raft.is_member:
                    return True
                sub.add_server(new_id)
            self.run_for(200.0)
        return False
