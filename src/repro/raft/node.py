"""The Raft node state machine (Sec. III-C).

Transport-agnostic: the host supplies ``send``/``set_timer``/``now`` and
delivers inbound RPCs to :meth:`RaftNode.handle`.  The host is also
responsible for crash semantics — on a crash it stops delivering
messages and cancels the node's timers, and on recovery it calls
:meth:`RaftNode.restart` (durable state — term, vote, log — survives;
volatile leadership state does not).

Membership: single-server changes via ``(ADD_SERVER, id)`` log entries.
As in Raft's membership-change protocol, a configuration entry takes
effect as soon as it is *appended* (not committed); truncating a
conflicting suffix rolls the configuration back.  One change at a time:
a leader refuses a new change while an earlier one is uncommitted.  A
node that is not yet part of the configuration stays passive (no
election timer) until it observes itself join via a replicated config
entry — this is how a new subgroup leader is absorbed into the FedAvg
layer (Sec. V-A1).
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Iterable, Optional, Protocol

import numpy as np

from ..obs import runtime as _obs
from .log import RaftLog
from .messages import (
    AppendEntries,
    AppendEntriesReply,
    LogEntry,
    PreVote,
    PreVoteReply,
    RequestVote,
    RequestVoteReply,
)
from .timers import RaftTiming

#: command tag for the no-op entry a fresh leader commits.
NOOP = "raft.noop"
#: command tag for single-server addition: ("raft.add_server", node_id).
ADD_SERVER = "raft.add_server"
#: command tag for single-server removal.
REMOVE_SERVER = "raft.remove_server"


def _is_config_change(command: Any) -> bool:
    return (
        isinstance(command, tuple) and bool(command)
        and command[0] in (ADD_SERVER, REMOVE_SERVER)
    )


class Role(enum.Enum):
    FOLLOWER = "follower"
    CANDIDATE = "candidate"
    LEADER = "leader"


class Transport(Protocol):
    """What a RaftNode needs from its host."""

    node_id: int

    def send(self, dst: int, msg: Any, size_bits: float = 0.0, kind: str = "msg") -> None: ...

    def set_timer(self, delay_ms: float, callback: Callable[[], None]) -> Any: ...

    def cancel_timer(self, handle: Any) -> None: ...

    @property
    def now(self) -> float: ...


class RaftNode:
    """One Raft participant.

    Parameters
    ----------
    transport:
        Host adapter (network + timers + clock).
    members:
        Initial cluster configuration (node ids, usually including this
        node).  A joining node passes the configuration it learned from
        its subgroup state machine; it stays passive until added.
    timing:
        Timeout configuration.
    rng:
        Randomness for timeout sampling.
    on_apply:
        ``f(index, entry)`` called for every committed entry (including
        config entries; NOOPs are skipped).
    on_leader:
        Called (with the new term) when this node wins an election.
    trace_kind:
        Prefix for message-kind accounting (e.g. ``"raft.sub3"``).
    """

    def __init__(
        self,
        transport: Transport,
        members: Iterable[int],
        timing: RaftTiming,
        rng: np.random.Generator,
        on_apply: Callable[[int, LogEntry], None] | None = None,
        on_leader: Callable[[int], None] | None = None,
        on_config: Callable[[frozenset[int]], None] | None = None,
        bootstrap_leader: bool = False,
        pre_vote: bool = False,
        trace_kind: str = "raft",
    ) -> None:
        self.transport = transport
        self.node_id = transport.node_id
        self.timing = timing
        self.rng = rng
        self.on_apply = on_apply
        self.on_leader = on_leader
        self.on_config = on_config
        #: if set, this node runs for election almost immediately on
        #: start-up (before anyone's follower timeout can fire), so the
        #: operator-designated leader wins term 1 — how a deployment
        #: would bring the cluster up.  Irrelevant after the first term.
        self.bootstrap_leader = bootstrap_leader
        #: run a PreVote round before real elections (term stays put
        #: until a majority signals electability)
        self.pre_vote = pre_vote
        self.trace_kind = trace_kind
        self._pre_votes: set[int] = set()
        self._last_leader_contact = float("-inf")
        # Durable state.
        self.current_term = 0
        self.voted_for: Optional[int] = None
        self.log = RaftLog()
        self._base_members = frozenset(int(m) for m in members)
        self.members: set[int] = set(self._base_members)

        # Volatile state.
        self.role = Role.FOLLOWER
        self.commit_index = 0
        self.last_applied = 0
        self.leader_hint: Optional[int] = None
        self._votes: set[int] = set()
        self._next_index: dict[int, int] = {}
        self._match_index: dict[int, int] = {}

        self._election_timer: Any = None
        self._candidacy_timer: Any = None
        self._heartbeat_timer: Any = None
        self._election_prearmed = False
        self._started = False

        # Instrumentation for the recovery experiments.
        self.became_leader_at: Optional[float] = None
        self.elections_started = 0

    # -------------------------------------------------------- observability
    def _emit(self, name: str, **fields: Any) -> None:
        """Guarded obs emission; call sites pre-check ``_obs.OBS.enabled``."""
        _obs.OBS.emit(
            name,
            t_ms=self.transport.now,
            node=self.node_id,
            cluster=self.trace_kind,
            term=self.current_term,
            **fields,
        )

    def _change_role(self, role: Role) -> None:
        if role is self.role:
            return
        old = self.role
        self.role = role
        if _obs.OBS.enabled:
            self._emit("raft.role", role=role.value, previous=old.value)

    # ------------------------------------------------------------ properties
    @property
    def is_leader(self) -> bool:
        return self.role is Role.LEADER

    @property
    def is_member(self) -> bool:
        return self.node_id in self.members

    @property
    def last_leader_contact(self) -> float:
        """Virtual time of the last valid AppendEntries from a leader."""
        return self._last_leader_contact

    def quorum(self) -> int:
        return len(self.members) // 2 + 1

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Arm the election timer (no-op for passive non-members)."""
        self._started = True
        if not self.is_member:
            return
        if self.bootstrap_leader and self.current_term == 0:
            jitter = float(self.rng.uniform(0.0, self.timing.timeout_base_ms / 20))
            self._candidacy_timer = self.transport.set_timer(
                jitter, self._begin_election
            )
        self._reset_election_timer()

    def restart(self) -> None:
        """Recovery after a crash: durable state kept, volatile reset."""
        self.role = Role.FOLLOWER
        self.leader_hint = None
        self._votes.clear()
        self._next_index.clear()
        self._match_index.clear()
        self._election_timer = None
        self._candidacy_timer = None
        self._heartbeat_timer = None
        self._election_prearmed = False
        self.start()

    def stop(self) -> None:
        """Cancel all timers (the host calls this on crash)."""
        for handle in (self._election_timer, self._candidacy_timer, self._heartbeat_timer):
            if handle is not None:
                self.transport.cancel_timer(handle)
        self._election_timer = None
        self._candidacy_timer = None
        self._heartbeat_timer = None

    # ----------------------------------------------------------------- timers
    def _reset_election_timer(self) -> None:
        if self._election_timer is not None:
            self.transport.cancel_timer(self._election_timer)
        timeout = self.timing.sample_timeout(self.rng)
        self._election_timer = self.transport.set_timer(
            timeout, self._on_follower_timeout
        )

    def _cancel_candidacy_timer(self) -> None:
        if self._candidacy_timer is not None:
            self.transport.cancel_timer(self._candidacy_timer)
            self._candidacy_timer = None

    def _on_follower_timeout(self) -> None:
        """No leader contact for a full follower timeout (Fig. 2 edge)."""
        self._election_timer = None
        if self.role is Role.LEADER or not self.is_member:
            return
        if _obs.OBS.enabled:
            self._emit("raft.timeout", role=self.role.value)
        if self.timing.pre_election_wait and self.role is Role.FOLLOWER:
            # Paper semantics (Sec. III-C1 wording): "the follower
            # increments its term, changes its state to candidate" at the
            # follower timeout, then "starts an election when the
            # [candidate] timeout is over".  Because every surviving
            # follower self-votes at candidacy before the first
            # RequestVote is sent, the first round typically splits and a
            # second (term+1) round decides — which is what makes the
            # measured election time "about twice the maximum follower
            # timeout" in Fig. 10.
            self._change_role(Role.CANDIDATE)
            if not self.pre_vote:
                # With PreVote the term must stay put until a majority
                # signals electability; the candidacy wait still applies.
                self.current_term += 1
                self.voted_for = self.node_id
                self._votes = {self.node_id}
                self._election_prearmed = True
                if _obs.OBS.enabled:
                    self._emit("raft.term")
            self._candidacy_timer = self.transport.set_timer(
                self.timing.sample_timeout(self.rng), self._begin_election
            )
        else:
            self._begin_election()

    # --------------------------------------------------------------- election
    def _begin_election(self) -> None:
        self._cancel_candidacy_timer()
        if self.role is Role.LEADER or not self.is_member:
            return
        self._change_role(Role.CANDIDATE)
        if self.pre_vote and not self._election_prearmed:
            self._begin_prevote()
            return
        self._run_real_election()

    def _begin_prevote(self) -> None:
        """PreVote round: ask for hypothetical votes at term+1 without
        disturbing anyone's term."""
        self._pre_votes = {self.node_id}
        msg = PreVote(
            term=self.current_term + 1,
            candidate_id=self.node_id,
            last_log_index=self.log.last_index,
            last_log_term=self.log.last_term,
        )
        for peer in self.members:
            if peer != self.node_id:
                self._send(peer, msg, "prevote_req")
        if len(self._pre_votes) >= self.quorum():  # single-node cluster
            self._run_real_election()
            return
        # Retry the whole probe if it doesn't conclude.
        self._candidacy_timer = self.transport.set_timer(
            self.timing.sample_timeout(self.rng), self._begin_election
        )

    def _run_real_election(self) -> None:
        self._cancel_candidacy_timer()
        if self._election_prearmed:
            # Term already incremented (and self-vote cast) at candidacy.
            self._election_prearmed = False
        else:
            self.current_term += 1
            self.voted_for = self.node_id
            self._votes = {self.node_id}
            if _obs.OBS.enabled:
                self._emit("raft.term")
        self.elections_started += 1
        if _obs.OBS.enabled:
            self._emit("raft.election.start")
        msg = RequestVote(
            term=self.current_term,
            candidate_id=self.node_id,
            last_log_index=self.log.last_index,
            last_log_term=self.log.last_term,
        )
        for peer in self.members:
            if peer != self.node_id:
                self._send(peer, msg, "vote_req")
        if len(self._votes) >= self.quorum():  # single-node cluster
            self._become_leader()
            return
        # Retry with a fresh term if this election doesn't conclude.
        self._candidacy_timer = self.transport.set_timer(
            self.timing.sample_timeout(self.rng), self._begin_election
        )

    def _become_leader(self) -> None:
        self._cancel_candidacy_timer()
        if self._election_timer is not None:
            self.transport.cancel_timer(self._election_timer)
            self._election_timer = None
        self._change_role(Role.LEADER)
        self.leader_hint = self.node_id
        self.became_leader_at = self.transport.now
        if _obs.OBS.enabled:
            self._emit("raft.election.win", votes=len(self._votes))
        next_idx = self.log.last_index + 1
        self._next_index = {p: next_idx for p in self.members if p != self.node_id}
        self._match_index = {p: 0 for p in self.members if p != self.node_id}
        # Commit point for the new term (lets prior-term entries commit).
        self.log.append(LogEntry(term=self.current_term, command=(NOOP,)))
        self._broadcast_append()
        self._schedule_heartbeat()
        if self.on_leader is not None:
            self.on_leader(self.current_term)

    def _step_down(self, term: int) -> None:
        self._change_role(Role.FOLLOWER)
        if term > self.current_term:
            self.current_term = term
            self.voted_for = None
            if _obs.OBS.enabled:
                self._emit("raft.term")
        self._votes.clear()
        self._cancel_candidacy_timer()
        self._election_prearmed = False
        if self._heartbeat_timer is not None:
            self.transport.cancel_timer(self._heartbeat_timer)
            self._heartbeat_timer = None
        if self.is_member and self._started:
            self._reset_election_timer()

    # ------------------------------------------------------------ replication
    def propose(self, command: Any) -> Optional[int]:
        """Append a client command (leader only); returns its log index."""
        if self.role is not Role.LEADER:
            return None
        index = self.log.append(LogEntry(term=self.current_term, command=command))
        self._config_on_append(self.log.get(index))
        self._broadcast_append()
        return index

    def add_server(self, new_id: int) -> Optional[int]:
        """Single-server membership addition (leader only).

        Returns the entry's log index, -1 if ``new_id`` already is a
        member, or None ("not now, retry") on a non-leader or while an
        earlier change is uncommitted — see :meth:`_change_pending`.
        """
        if self.role is not Role.LEADER:
            return None
        if new_id in self.members:
            return -1  # already a member; nothing to do
        if self._change_pending():
            return None
        return self.propose((ADD_SERVER, int(new_id)))

    def remove_server(self, old_id: int) -> Optional[int]:
        """Single-server membership removal; returns as :meth:`add_server`."""
        if self.role is not Role.LEADER:
            return None
        if old_id not in self.members:
            return -1
        if self._change_pending():
            return None
        return self.propose((REMOVE_SERVER, int(old_id)))

    def _change_pending(self) -> bool:
        """Whether an ADD/REMOVE entry sits above the commit index.

        Single-server changes are safe only one at a time: two in flight
        make a two-server swap whose old and new majorities need not
        intersect.
        """
        return any(
            _is_config_change(entry.command)
            for entry in self.log.entries_from(self.commit_index + 1)
        )

    def _schedule_heartbeat(self) -> None:
        self._heartbeat_timer = self.transport.set_timer(
            self.timing.heartbeat_ms, self._on_heartbeat
        )

    def _on_heartbeat(self) -> None:
        self._heartbeat_timer = None
        if self.role is not Role.LEADER:
            return
        self._broadcast_append()
        self._schedule_heartbeat()

    def _broadcast_append(self) -> None:
        for peer in list(self.members):
            if peer != self.node_id:
                self._send_append(peer)

    def _send_append(self, peer: int) -> None:
        next_idx = self._next_index.setdefault(peer, self.log.last_index + 1)
        self._match_index.setdefault(peer, 0)
        prev_index = next_idx - 1
        prev_term = self.log.term_at(prev_index) if prev_index <= self.log.last_index else 0
        entries = self.log.entries_from(next_idx) if next_idx <= self.log.last_index else ()
        msg = AppendEntries(
            term=self.current_term,
            leader_id=self.node_id,
            prev_log_index=prev_index,
            prev_log_term=prev_term,
            entries=entries,
            leader_commit=self.commit_index,
        )
        self._send(peer, msg, "append")

    def _advance_commit(self) -> None:
        """Leader: commit the highest current-term index on a quorum."""
        for n in range(self.log.last_index, self.commit_index, -1):
            if self.log.term_at(n) != self.current_term:
                break  # only current-term entries commit directly
            # A leader that has been removed from the configuration no
            # longer counts itself toward the quorum (Raft thesis
            # Sec. 4.2.2) — it still commits C_new, via the others.
            replicated = (1 if self.node_id in self.members else 0) + sum(
                1
                for p, m in self._match_index.items()
                if p in self.members and m >= n
            )
            if replicated >= self.quorum():
                self.commit_index = n
                if _obs.OBS.enabled:
                    self._emit("raft.commit", index=n, replicated=replicated)
                self._apply_committed()
                break

    def _apply_committed(self) -> None:
        removed_self = False
        while self.last_applied < self.commit_index:
            self.last_applied += 1
            entry = self.log.get(self.last_applied)
            cmd = entry.command
            if isinstance(cmd, tuple) and cmd and cmd[0] == NOOP:
                continue
            if (
                isinstance(cmd, tuple) and cmd
                and cmd[0] == REMOVE_SERVER and cmd[1] == self.node_id
            ):
                removed_self = True
            if self.on_apply is not None:
                self.on_apply(self.last_applied, entry)
        if removed_self and self.role is Role.LEADER:
            # Removed-leader step-down (Raft thesis Sec. 4.2.2): the
            # leader serves until C_new commits, then stops leading; a
            # non-member stays passive, so no election timer re-arms.
            self._step_down(self.current_term)

    # ------------------------------------------------------------- membership
    def _config_on_append(self, entry: LogEntry) -> None:
        cmd = entry.command
        if not (isinstance(cmd, tuple) and cmd):
            return
        if cmd[0] == ADD_SERVER:
            new_id = cmd[1]
            self.members.add(new_id)
            if self.role is Role.LEADER and new_id != self.node_id:
                self._next_index.setdefault(new_id, self.log.last_index + 1)
                self._match_index.setdefault(new_id, 0)
                self._send_append(new_id)
            self._maybe_activate()
            self._notify_config()
        elif cmd[0] == REMOVE_SERVER:
            self.members.discard(cmd[1])
            self._next_index.pop(cmd[1], None)
            self._match_index.pop(cmd[1], None)
            self._notify_config()

    def _notify_config(self) -> None:
        if self.on_config is not None:
            self.on_config(frozenset(self.members))

    def _rebuild_members_from_log(self) -> None:
        """Recompute membership from the log (new config entries arrived
        or a conflicting suffix was truncated)."""
        members = set(self._base_members)
        for entry in self.log:
            cmd = entry.command
            if isinstance(cmd, tuple) and cmd:
                if cmd[0] == ADD_SERVER:
                    members.add(cmd[1])
                elif cmd[0] == REMOVE_SERVER:
                    members.discard(cmd[1])
        changed = members != self.members
        self.members = members
        if changed:
            self._notify_config()

    def _maybe_activate(self) -> None:
        """A passive node that just became a member arms its timer."""
        if self._started and self.is_member and self._election_timer is None \
                and self.role is Role.FOLLOWER and self._candidacy_timer is None:
            self._reset_election_timer()

    # --------------------------------------------------------------- inbound
    def handle(self, src: int, msg: Any) -> None:
        if isinstance(msg, RequestVote):
            self._on_request_vote(src, msg)
        elif isinstance(msg, RequestVoteReply):
            self._on_vote_reply(msg)
        elif isinstance(msg, AppendEntries):
            self._on_append_entries(src, msg)
        elif isinstance(msg, AppendEntriesReply):
            self._on_append_reply(msg)
        elif isinstance(msg, PreVote):
            self._on_prevote(src, msg)
        elif isinstance(msg, PreVoteReply):
            self._on_prevote_reply(msg)
        else:
            raise TypeError(f"unknown Raft message {type(msg).__name__}")

    def _on_prevote(self, src: int, msg: PreVote) -> None:
        """Grant iff we would plausibly vote for this candidate at that
        term AND we have not heard from a live leader recently (so the
        probe cannot depose a healthy leader)."""
        quiet = (
            self.transport.now - self._last_leader_contact
            >= self.timing.timeout_base_ms
        )
        granted = (
            msg.term > self.current_term
            and self.role is not Role.LEADER
            and quiet
            and self.log.is_up_to_date(msg.last_log_index, msg.last_log_term)
        )
        self._send(
            src,
            PreVoteReply(term=self.current_term, voter_id=self.node_id, granted=granted),
            "prevote_rep",
        )

    def _on_prevote_reply(self, msg: PreVoteReply) -> None:
        if msg.term > self.current_term:
            self._step_down(msg.term)
            return
        if self.role is not Role.CANDIDATE or not msg.granted:
            return
        self._pre_votes.add(msg.voter_id)
        if len(self._pre_votes & self.members | {self.node_id}) >= self.quorum():
            self._run_real_election()

    def _on_request_vote(self, src: int, msg: RequestVote) -> None:
        if msg.term > self.current_term:
            self._step_down(msg.term)
        granted = False
        if msg.term == self.current_term and self.role is not Role.LEADER:
            fresh_vote = self.voted_for in (None, msg.candidate_id)
            up_to_date = self.log.is_up_to_date(msg.last_log_index, msg.last_log_term)
            if fresh_vote and up_to_date:
                granted = True
                self.voted_for = msg.candidate_id
                if self.is_member and self._started:
                    self._reset_election_timer()
        if _obs.OBS.enabled:
            self._emit("raft.vote", candidate=msg.candidate_id, granted=granted)
        self._send(
            src,
            RequestVoteReply(term=self.current_term, voter_id=self.node_id, granted=granted),
            "vote_rep",
        )

    def _on_vote_reply(self, msg: RequestVoteReply) -> None:
        if msg.term > self.current_term:
            self._step_down(msg.term)
            return
        if self.role is not Role.CANDIDATE or msg.term != self.current_term:
            return
        if msg.granted:
            self._votes.add(msg.voter_id)
            if len(self._votes & self.members | {self.node_id}) >= self.quorum():
                self._become_leader()

    def _on_append_entries(self, src: int, msg: AppendEntries) -> None:
        if msg.term < self.current_term:
            self._reply_append(src, False, self.log.last_index)
            return
        if msg.term > self.current_term or self.role is not Role.FOLLOWER:
            self._step_down(msg.term)
        self.leader_hint = msg.leader_id
        self._last_leader_contact = self.transport.now
        if self.is_member and self._started:
            self._reset_election_timer()
        self._cancel_candidacy_timer()
        if self.role is Role.CANDIDATE:
            self._change_role(Role.FOLLOWER)

        if not self.log.matches(msg.prev_log_index, msg.prev_log_term):
            hint = min(self.log.last_index, msg.prev_log_index - 1)
            self._reply_append(src, False, max(0, hint))
            return

        # Append new entries, truncating any conflicting suffix.
        index = msg.prev_log_index
        config_changed = False
        truncated = False
        for entry in msg.entries:
            index += 1
            if index <= self.log.last_index:
                if self.log.term_at(index) == entry.term:
                    continue  # already have it
                self.log.truncate_from(index)
                truncated = True
            self.log.append(entry)
            config_changed = config_changed or _is_config_change(entry.command)
        if truncated or config_changed:
            # Membership follows the log, including a rolled-back suffix.
            self._rebuild_members_from_log()
            self._maybe_activate()

        if msg.leader_commit > self.commit_index:
            self.commit_index = min(msg.leader_commit, self.log.last_index)
            if _obs.OBS.enabled:
                self._emit("raft.commit", index=self.commit_index)
            self._apply_committed()
        self._reply_append(src, True, index)

    def _reply_append(self, dst: int, success: bool, match_index: int) -> None:
        reply = AppendEntriesReply(
            term=self.current_term, follower_id=self.node_id,
            success=success, match_index=match_index,
        )
        self._send(dst, reply, "append_rep")

    def _on_append_reply(self, msg: AppendEntriesReply) -> None:
        if msg.term > self.current_term:
            self._step_down(msg.term)
            return
        if self.role is not Role.LEADER or msg.term != self.current_term:
            return
        peer = msg.follower_id
        if msg.success:
            if msg.match_index > self._match_index.get(peer, 0):
                self._match_index[peer] = msg.match_index
            self._next_index[peer] = msg.match_index + 1
            self._advance_commit()
            if self._next_index[peer] <= self.log.last_index:
                self._send_append(peer)  # keep streaming the backlog
        else:
            # Walk back using the follower's hint and retry immediately.
            current = self._next_index.get(peer, self.log.last_index + 1)
            self._next_index[peer] = max(1, min(current - 1, msg.match_index + 1))
            self._send_append(peer)

    # ------------------------------------------------------------------ misc
    def _send(self, dst: int, msg: Any, suffix: str) -> None:
        self.transport.send(
            dst, msg, size_bits=msg.size_bits(), kind=f"{self.trace_kind}.{suffix}"
        )
