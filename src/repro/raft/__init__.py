"""Raft consensus (Sec. III-C substrate; replaces hashicorp/raft).

Implements leader election, log replication, the safety rules
(up-to-date vote restriction, current-term-only commit), single-server
cluster membership change (one change in flight at a time) and the
optional PreVote round — everything the two-layer Raft backend of
Sec. V builds on, and nothing more.

The node is transport-agnostic: it talks to the world through a
:class:`Transport` (send / timers / clock), so the same implementation
runs standalone on a simulated network (:mod:`.cluster`) or as one of
two endpoints hosted by a peer process in the two-layer system
(:mod:`repro.twolayer_raft`).
"""

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
from .node import ADD_SERVER, NOOP, REMOVE_SERVER, RaftNode, Role
from .timers import RaftTiming
from .cluster import RaftCluster, RaftHost

__all__ = [
    "RaftLog",
    "LogEntry",
    "RequestVote",
    "RequestVoteReply",
    "AppendEntries",
    "AppendEntriesReply",
    "RaftNode",
    "Role",
    "RaftTiming",
    "RaftCluster",
    "RaftHost",
    "NOOP",
    "ADD_SERVER",
    "REMOVE_SERVER",
    "PreVote",
    "PreVoteReply",
]
