"""Typed outcome of one protocol round on the simulated network.

A bare ``completed: bool`` cannot say *why* a round failed, which is
exactly what the chaos harness (:mod:`repro.chaos`) needs to assert the
liveness invariant "complete, or degrade to a *typed* failure naming the
cause".  :class:`RoundOutcome` carries one of four statuses plus a
free-form reason string:

- ``completed`` — the round finished and produced its aggregate;
- ``timed_out`` — the round hit its deadline with no structural cause
  identified (e.g. fire-and-forget losses, or a reliable sender whose
  retransmit budget ran out — the reason string says which);
- ``unrecoverable_dropout`` — crashes destroyed state the protocol
  cannot reconstruct (a share index with no surviving holder, fewer
  than ``k`` survivors, a dead leader);
- ``leader_isolated`` — a partition separates the leader from peers it
  still needs.

Every actor round reports it as ``result.outcome``
(:class:`repro.secure.protocol.ActorRoundResult`); ``outcome.ok`` is the
success test.
"""

from __future__ import annotations

from dataclasses import dataclass

#: the four statuses a round can end in.
COMPLETED = "completed"
TIMED_OUT = "timed_out"
UNRECOVERABLE_DROPOUT = "unrecoverable_dropout"
LEADER_ISOLATED = "leader_isolated"

ROUND_STATUSES = (COMPLETED, TIMED_OUT, UNRECOVERABLE_DROPOUT, LEADER_ISOLATED)


@dataclass(frozen=True)
class RoundOutcome:
    """Status + human-readable cause of one protocol round."""

    status: str
    reason: str = ""

    def __post_init__(self) -> None:
        if self.status not in ROUND_STATUSES:
            raise ValueError(
                f"unknown round status {self.status!r}; "
                f"expected one of {ROUND_STATUSES}"
            )

    @property
    def ok(self) -> bool:
        return self.status == COMPLETED

    @property
    def degraded(self) -> bool:
        """A typed, diagnosed failure (anything but success)."""
        return self.status != COMPLETED

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.status}({self.reason})" if self.reason else self.status


#: the singleton success outcome (no reason needed).
OUTCOME_COMPLETED = RoundOutcome(COMPLETED)
