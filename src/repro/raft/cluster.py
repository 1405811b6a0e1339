"""Standalone Raft cluster on the simulated network (test/bench harness)."""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from ..simnet import FixedLatency, Network, SimNode, Simulator, TraceRecorder
from ..simnet.network import DEFAULT_DELAY_MS
from .messages import LogEntry
from .node import RaftNode
from .timers import RaftTiming


class RaftHost(SimNode):
    """A SimNode hosting exactly one RaftNode."""

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        network: Network,
        members: list[int],
        timing: RaftTiming,
        rng: np.random.Generator,
        on_apply: Callable[[int, LogEntry], None] | None = None,
        on_leader: Callable[[int], None] | None = None,
    ) -> None:
        super().__init__(node_id, sim, network)
        self.raft = RaftNode(
            transport=self,
            members=members,
            timing=timing,
            rng=rng,
            on_apply=on_apply,
            on_leader=on_leader,
        )

    # Transport protocol --------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    def on_message(self, src: int, msg: Any) -> None:
        self.raft.handle(src, msg)

    def on_recover(self) -> None:
        super().on_recover()
        self.raft.restart()


class RaftCluster:
    """Builds n Raft hosts on one simulated network.

    The default configuration mirrors the paper's setup: 15 ms one-way
    delay and timeouts ~ U(T, 2T).
    """

    def __init__(
        self,
        n: int,
        timeout_base_ms: float = 50.0,
        seed: int = 0,
        pre_election_wait: bool = True,
    ) -> None:
        if n < 1:
            raise ValueError("need at least one node")
        self.sim = Simulator()
        self.rng = np.random.default_rng(seed)
        self.trace = TraceRecorder()
        self.network = Network(
            self.sim, latency=FixedLatency(DEFAULT_DELAY_MS), rng=self.rng,
            trace=self.trace,
        )
        self.network.trace_id = f"raft:s{seed}"
        timing = RaftTiming(
            timeout_base_ms=timeout_base_ms, pre_election_wait=pre_election_wait
        )
        members = list(range(n))
        self.applied: dict[int, list[tuple[int, Any]]] = {i: [] for i in members}
        self.leader_events: list[tuple[float, int, int]] = []  # (time, node, term)
        self.hosts = [
            RaftHost(
                i,
                self.sim,
                self.network,
                members,
                timing,
                rng=np.random.default_rng(self.rng.integers(2**63)),
                on_apply=self._make_apply(i),
                on_leader=self._make_on_leader(i),
            )
            for i in members
        ]
        for host in self.hosts:
            host.raft.start()

    def _make_apply(self, node_id: int):
        def apply(index: int, entry: LogEntry) -> None:
            self.applied[node_id].append((index, entry.command))

        return apply

    def _make_on_leader(self, node_id: int):
        def on_leader(term: int) -> None:
            self.leader_events.append((self.sim.now, node_id, term))

        return on_leader

    # ------------------------------------------------------------- accessors
    def node(self, i: int) -> RaftNode:
        return self.hosts[i].raft

    def alive_nodes(self) -> list[RaftNode]:
        return [
            h.raft for h in self.hosts if not self.network.is_crashed(h.node_id)
        ]

    def leader_id(self) -> Optional[int]:
        """The id of the unique alive leader, or None."""
        leaders = [r.node_id for r in self.alive_nodes() if r.is_leader]
        return leaders[0] if len(leaders) == 1 else None

    def leaders_by_term(self) -> dict[int, set[int]]:
        """term -> nodes that ever won that term (for safety checks)."""
        out: dict[int, set[int]] = {}
        for _, node, term in self.leader_events:
            out.setdefault(term, set()).add(node)
        return out

    # -------------------------------------------------------------- controls
    def run_until_leader(self, max_ms: float = 60_000.0) -> int:
        """Advance until exactly one alive leader exists; returns its id."""
        step = 5.0
        t = self.sim.now
        while self.sim.now - t < max_ms:
            self.sim.run_until(self.sim.now + step)
            lid = self.leader_id()
            if lid is not None:
                return lid
        raise TimeoutError("no leader elected within the deadline")

    def run_for(self, ms: float) -> None:
        self.sim.run_until(self.sim.now + ms)

    def crash(self, node_id: int) -> None:
        self.hosts[node_id].raft.stop()
        self.network.crash(node_id)

    def recover(self, node_id: int) -> None:
        self.network.recover(node_id)

    def propose(self, command: Any) -> Optional[int]:
        """Propose via the current leader; returns the entry index."""
        lid = self.leader_id()
        if lid is None:
            return None
        return self.hosts[lid].raft.propose(command)
