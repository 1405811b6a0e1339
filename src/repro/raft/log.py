"""The replicated log (1-indexed, index 0 = the empty sentinel)."""

from __future__ import annotations

from .messages import LogEntry


class RaftLog:
    """Append-only log with conflict truncation.

    Indices are 1-based as in the Raft paper; index 0 denotes "before the
    first entry" and has term 0.
    """

    def __init__(self) -> None:
        self._entries: list[LogEntry] = []

    # ---------------------------------------------------------------- queries
    @property
    def last_index(self) -> int:
        return len(self._entries)

    @property
    def last_term(self) -> int:
        return self._entries[-1].term if self._entries else 0

    def term_at(self, index: int) -> int:
        """Term of the entry at ``index`` (0 for the sentinel index 0)."""
        if index == 0:
            return 0
        return self.get(index).term

    def get(self, index: int) -> LogEntry:
        if not 1 <= index <= self.last_index:
            raise IndexError(f"log index {index} out of range [1, {self.last_index}]")
        return self._entries[index - 1]

    def entries_from(self, index: int) -> tuple[LogEntry, ...]:
        """All entries with indices >= ``index``."""
        if index < 1:
            raise IndexError("entries_from expects index >= 1")
        return tuple(self._entries[index - 1 :])

    def matches(self, prev_index: int, prev_term: int) -> bool:
        """The AppendEntries consistency check."""
        if prev_index == 0:
            return True
        if prev_index > self.last_index:
            return False
        return self.term_at(prev_index) == prev_term

    def is_up_to_date(self, other_last_index: int, other_last_term: int) -> bool:
        """Whether (other_last_term, other_last_index) is at least as
        up-to-date as this log — the election restriction (Sec. III-C3)."""
        if other_last_term != self.last_term:
            return other_last_term > self.last_term
        return other_last_index >= self.last_index

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    # -------------------------------------------------------------- mutation
    def append(self, entry: LogEntry) -> int:
        """Append one entry; returns its index."""
        self._entries.append(entry)
        return self.last_index

    def truncate_from(self, index: int) -> None:
        """Delete the entry at ``index`` and everything after it."""
        if index < 1:
            raise IndexError("cannot truncate the sentinel")
        del self._entries[index - 1 :]
