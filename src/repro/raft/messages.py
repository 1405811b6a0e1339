"""Raft RPC messages (Sec. III-C).

Sizes: Raft control traffic is negligible next to model transfers, but
we still account for it so the trace can separate protocol overhead from
payload.  Each RPC costs a nominal header plus the payload bits of any
log entries it carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

#: Nominal wire size of an RPC header (term, ids, indices, checksums).
RPC_HEADER_BITS = 512


@dataclass(frozen=True)
class LogEntry:
    """One replicated log entry."""

    term: int
    command: Any

    def size_bits(self) -> float:
        """Rough wire size; config entries carry a few ids."""
        cmd = self.command
        if isinstance(cmd, tuple) and cmd and isinstance(cmd[0], str):
            return 64.0 + 64.0 * len(cmd)
        return 256.0


@dataclass(frozen=True)
class RequestVote:
    term: int
    candidate_id: int
    last_log_index: int
    last_log_term: int

    def size_bits(self) -> float:
        return RPC_HEADER_BITS


@dataclass(frozen=True)
class RequestVoteReply:
    term: int
    voter_id: int
    granted: bool

    def size_bits(self) -> float:
        return RPC_HEADER_BITS


@dataclass(frozen=True)
class PreVote:
    """PreVote extension: probe electability without bumping the term.

    A partitioned node that keeps timing out would otherwise return with
    an inflated term and depose a healthy leader; with PreVote it first
    asks whether a majority would grant a vote at ``term + 1``.
    """

    term: int  # the term the candidate WOULD use (current + 1)
    candidate_id: int
    last_log_index: int
    last_log_term: int

    def size_bits(self) -> float:
        return RPC_HEADER_BITS


@dataclass(frozen=True)
class PreVoteReply:
    term: int
    voter_id: int
    granted: bool

    def size_bits(self) -> float:
        return RPC_HEADER_BITS


@dataclass(frozen=True)
class AppendEntries:
    term: int
    leader_id: int
    prev_log_index: int
    prev_log_term: int
    entries: tuple[LogEntry, ...]
    leader_commit: int

    def size_bits(self) -> float:
        return RPC_HEADER_BITS + sum(e.size_bits() for e in self.entries)


@dataclass(frozen=True)
class AppendEntriesReply:
    term: int
    follower_id: int
    success: bool
    #: on success: index of the last entry now matching the leader's log;
    #: on failure: the follower's best hint for where logs diverge.
    match_index: int

    def size_bits(self) -> float:
        return RPC_HEADER_BITS
