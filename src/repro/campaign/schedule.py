"""Round-indexed campaign schedules: churn events.

A :class:`CampaignSchedule` is the multi-round analogue of a
:class:`~repro.chaos.FaultSchedule`: it pins, for a whole campaign, the
membership churn applied at each round boundary (:class:`Join` /
:class:`Leave` / :class:`Rejoin`, over *stable* peer ids that survive
re-sharding).  Validation replays the churn so an impossible trajectory
(a peer leaving twice, a joiner reusing a live id, a rejoin without a
prior leave) is rejected at construction, the same fail-fast stance
``FaultSchedule`` takes.  The runner samples each storm round's fault
plan from its own seeded stream.

Seeded schedules are drawn by :func:`sample_campaign_schedule` from an
extended :class:`~repro.chaos.ChaosProfile` (its ``leave_rate`` /
``join_rate`` / ``rejoin_prob`` fields) with an explicit generator —
one rng state pins the whole campaign's churn bit-for-bit.  Churn and
faults land only on *storm* rounds (``index % STORM_PERIOD == 0``); the
rounds between them are quiesced on purpose, so the cross-round
recovery invariant (:func:`repro.chaos.invariants.check_eventual_recovery`)
always has a quiet round to observe recovery in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from ..chaos.plan import ChaosPlan, ChaosProfile, ChurnDraw

__all__ = [
    "Join",
    "Leave",
    "Rejoin",
    "ChurnEvent",
    "CampaignSchedule",
    "sample_campaign_schedule",
]

#: churn and faults land on every ``STORM_PERIOD``-th round boundary.
STORM_PERIOD = 2


@dataclass(frozen=True)
class Join:
    """A brand-new peer enters before round ``round`` (stable id)."""

    round: int
    peer: int


@dataclass(frozen=True)
class Leave:
    """A present peer departs for good before round ``round``."""

    round: int
    peer: int


@dataclass(frozen=True)
class Rejoin:
    """A previously departed peer returns before round ``round``."""

    round: int
    peer: int


ChurnEvent = Union[Join, Leave, Rejoin]


@dataclass(frozen=True)
class CampaignSchedule:
    """A validated, replayable multi-round churn schedule."""

    rounds: int
    initial_members: tuple[int, ...]
    churn: tuple[ChurnEvent, ...] = ()

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("a campaign needs at least one round")
        if not self.initial_members:
            raise ValueError("a campaign needs at least one initial member")
        if len(set(self.initial_members)) != len(self.initial_members):
            raise ValueError("duplicate ids in initial_members")
        ordered = sorted(
            self.churn, key=lambda e: (e.round, type(e).__name__, e.peer)
        )
        object.__setattr__(self, "churn", tuple(ordered))
        # Replay the churn to reject impossible trajectories.
        present = set(self.initial_members)
        departed: set[int] = set()
        for ev in self.churn:
            if not 0 <= ev.round < self.rounds:
                raise ValueError(
                    f"{type(ev).__name__}(round={ev.round}) outside "
                    f"0..{self.rounds - 1}"
                )
            if isinstance(ev, Leave):
                if ev.peer not in present:
                    raise ValueError(
                        f"Leave(round={ev.round}): peer {ev.peer} not present"
                    )
                present.discard(ev.peer)
                departed.add(ev.peer)
            elif isinstance(ev, Rejoin):
                if ev.peer not in departed:
                    raise ValueError(
                        f"Rejoin(round={ev.round}): peer {ev.peer} never left"
                    )
                departed.discard(ev.peer)
                present.add(ev.peer)
            elif isinstance(ev, Join):
                if ev.peer in present or ev.peer in departed:
                    raise ValueError(
                        f"Join(round={ev.round}): id {ev.peer} already used"
                    )
                present.add(ev.peer)
            else:  # pragma: no cover - the union is closed
                raise TypeError(f"unknown churn event {type(ev).__name__}")

    # ------------------------------------------------------------------ views
    def churn_at(self, index: int) -> tuple[ChurnEvent, ...]:
        """Churn events applied at the boundary entering round ``index``."""
        return tuple(e for e in self.churn if e.round == index)

    def members_entering(self, index: int) -> tuple[int, ...]:
        """Alive stable ids entering round ``index`` (churn applied)."""
        if not 0 <= index < self.rounds:
            raise ValueError(f"round {index} outside 0..{self.rounds - 1}")
        present = set(self.initial_members)
        for ev in self.churn:
            if ev.round > index:
                break
            if isinstance(ev, Leave):
                present.discard(ev.peer)
            else:
                present.add(ev.peer)
        return tuple(sorted(present))

    def quiesced(self, index: int) -> bool:
        """No churn at this round's boundary."""
        return not self.churn_at(index)

    def describe(self) -> str:
        joins = sum(1 for e in self.churn if isinstance(e, Join))
        leaves = sum(1 for e in self.churn if isinstance(e, Leave))
        rejoins = sum(1 for e in self.churn if isinstance(e, Rejoin))
        return (
            f"{self.rounds} rounds over {len(self.initial_members)} peers: "
            f"{joins} join(s), {leaves} leave(s), {rejoins} rejoin(s)"
        )


def sample_campaign_schedule(
    rng: np.random.Generator,
    profile: ChaosProfile,
    rounds: int,
    initial_members: Sequence[int],
    min_alive: int = 2,
) -> CampaignSchedule:
    """Draw a campaign's churn trajectory from ``profile``.

    Churn lands at the boundary of every storm round (``index %
    STORM_PERIOD == 0``, except round 0 — the initial membership *is*
    round 0's boundary); the rounds between storms stay untouched so the
    recovery invariant has quiesced rounds to check.  Departures are
    capped so at least ``min_alive`` peers always survive — total
    extinction is a degenerate campaign, not an interesting one.  Fault
    plans are *not* sampled here: they depend on each round's dense
    topology (which depends on the re-sharding policy), so the runner
    draws them per storm round from its own seeded stream.
    """
    present = set(initial_members)
    departed: set[int] = set()
    next_id = max(present) + 1 if present else 0
    events: list[ChurnEvent] = []
    for index in range(1, rounds):
        if index % STORM_PERIOD != 0:
            continue
        draw: ChurnDraw = ChaosPlan.sample_churn(
            rng, profile,
            present=sorted(present), departed=sorted(departed),
            max_leaves=max(0, len(present) - min_alive),
        )
        for pid in draw.leaves:
            events.append(Leave(index, pid))
            present.discard(pid)
            departed.add(pid)
        for pid in draw.rejoins:
            events.append(Rejoin(index, pid))
            departed.discard(pid)
            present.add(pid)
        for _ in range(draw.n_joins):
            events.append(Join(index, next_id))
            present.add(next_id)
            next_id += 1
    return CampaignSchedule(
        rounds=rounds,
        initial_members=tuple(sorted(initial_members)),
        churn=tuple(events),
    )
