"""Seeded random generation of fault schedules.

:class:`ChaosProfile` describes a *distribution* over fault schedules
(how likely crashes, loss windows, partitions and stragglers are, and
how severe); :meth:`ChaosPlan.sample` draws one concrete, validated
:class:`~repro.chaos.schedule.FaultSchedule` from it using an explicit
:class:`numpy.random.Generator`, so a (profile, seed) pair pins the
exact fault sequence bit-for-bit — the chaos analogue of the repo-wide
"all randomness flows through explicit generators" rule.

Samplers never crash ``protected`` nodes (leaders whose loss is a
different experiment) and cap unrecovered crashes at ``max_crashes`` so
the caller can keep a plan inside the protocol's tolerance (``n - k``
for FT-SAC) or deliberately push past it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .schedule import (
    Crash,
    DelaySpike,
    FaultEvent,
    FaultSchedule,
    LossWindow,
    PartitionWindow,
    Recover,
)


@dataclass(frozen=True)
class ChaosProfile:
    """Distribution parameters for :meth:`ChaosPlan.sample`.

    Probabilities are per-plan (``crash_rate`` is per eligible node);
    ranges are ``(low, high)`` for uniform draws.  ``horizon_ms`` is the
    window faults are injected into — pick it to cover roughly one
    protocol round so events actually land mid-flight.
    """

    name: str
    crash_rate: float = 0.0
    recover_prob: float = 0.0
    loss_window_prob: float = 0.0
    loss_rate_range: tuple[float, float] = (0.05, 0.3)
    partition_prob: float = 0.0
    delay_spike_prob: float = 0.0
    extra_delay_range: tuple[float, float] = (30.0, 120.0)
    horizon_ms: float = 120.0
    # -- between-round churn (campaigns only; a single chaos round never
    #    reads these, so existing profiles keep their exact rng streams).
    #: per-present-peer probability of leaving at a round boundary.
    leave_rate: float = 0.0
    #: per-slot probability that a brand-new peer joins (see MAX_JOINS).
    join_rate: float = 0.0
    #: per-departed-peer probability of rejoining at a round boundary.
    rejoin_prob: float = 0.0


#: join slots drawn per round boundary (each succeeds with ``join_rate``).
MAX_JOINS = 2


#: Named presets selectable from the CLI (``repro chaos --profile``).
PROFILES: dict[str, ChaosProfile] = {
    "crashes": ChaosProfile(
        name="crashes", crash_rate=0.35, recover_prob=0.25,
    ),
    "lossy": ChaosProfile(
        name="lossy", loss_window_prob=1.0, loss_rate_range=(0.05, 0.3),
    ),
    "stragglers": ChaosProfile(
        name="stragglers", delay_spike_prob=1.0,
        extra_delay_range=(30.0, 120.0),
    ),
    "partitions": ChaosProfile(
        name="partitions", partition_prob=1.0,
    ),
    "mixed": ChaosProfile(
        name="mixed", crash_rate=0.2, recover_prob=0.3,
        loss_window_prob=0.5, loss_rate_range=(0.05, 0.25),
        partition_prob=0.2, delay_spike_prob=0.3,
    ),
}


@dataclass(frozen=True)
class ChurnDraw:
    """One round boundary's sampled membership churn (stable peer ids).

    ``n_joins`` counts brand-new peers; the caller mints their ids (the
    sampler cannot know the campaign's id high-water mark).
    """

    leaves: tuple[int, ...]
    rejoins: tuple[int, ...]
    n_joins: int

    @property
    def quiet(self) -> bool:
        return not self.leaves and not self.rejoins and self.n_joins == 0


@dataclass(frozen=True)
class ChaosPlan:
    """One sampled fault schedule plus the provenance that produced it."""

    profile: str
    schedule: FaultSchedule

    def describe(self) -> str:
        return f"[{self.profile}] {self.schedule.describe()}"

    @classmethod
    def sample(
        cls,
        rng: np.random.Generator,
        profile: ChaosProfile | str,
        nodes: Sequence[int],
        protected: Iterable[int] = (),
        max_crashes: int | None = None,
    ) -> "ChaosPlan":
        """Draw one concrete plan from ``profile``.

        Parameters
        ----------
        rng:
            Drives every draw; same generator state → same plan.
        nodes:
            All node ids in the deployment.
        protected:
            Nodes that must never crash and never end up cut off from
            the rest by a sampled partition (typically the leader(s)).
        max_crashes:
            Cap on crashes that never recover.  ``None`` allows up to
            ``len(nodes) - len(protected) - 1``.
        """
        if isinstance(profile, str):
            try:
                profile = PROFILES[profile]
            except KeyError:
                raise ValueError(
                    f"unknown chaos profile {profile!r}; "
                    f"expected one of {sorted(PROFILES)}"
                ) from None
        protected_set = frozenset(protected)
        eligible = [n for n in nodes if n not in protected_set]
        if max_crashes is None:
            max_crashes = max(0, len(eligible) - 1)
        horizon = profile.horizon_ms
        events: list[FaultEvent] = []

        # Crashes (optionally recovering). Draw per eligible node in id
        # order so the consumed rng stream is deterministic.
        permanent = 0
        for node in sorted(eligible):
            if rng.random() >= profile.crash_rate:
                continue
            t_crash = float(rng.uniform(0.0, 0.6 * horizon))
            recovers = rng.random() < profile.recover_prob
            if not recovers and permanent >= max_crashes:
                continue  # respect the unrecovered-crash budget
            events.append(Crash(t_crash, node))
            if recovers:
                t_back = float(rng.uniform(t_crash + 1.0, horizon))
                events.append(Recover(t_back, node))
            else:
                permanent += 1

        # One loss window.
        if rng.random() < profile.loss_window_prob:
            lo, hi = profile.loss_rate_range
            rate = float(rng.uniform(lo, hi))
            start = float(rng.uniform(0.0, 0.4 * horizon))
            end = float(rng.uniform(start + 0.2 * horizon, horizon))
            events.append(LossWindow(start, end, rate))

        # One two-way partition keeping all protected nodes together.
        loose = [n for n in sorted(nodes) if n not in protected_set]
        if loose and len(nodes) >= 2 and rng.random() < profile.partition_prob:
            # Cut off a random non-empty strict subset of the
            # unprotected nodes; everyone else stays with the leaders.
            cut_size = int(rng.integers(1, max(2, len(loose))))
            picked = rng.choice(len(loose), size=cut_size, replace=False)
            minority = tuple(loose[i] for i in sorted(picked))
            majority = tuple(
                n for n in sorted(nodes) if n not in set(minority)
            )
            if minority and majority:
                start = float(rng.uniform(0.0, 0.4 * horizon))
                end = float(rng.uniform(start + 0.1 * horizon, horizon))
                events.append(
                    PartitionWindow(start, end, (majority, minority))
                )

        # One straggler window over a small random subset.
        if eligible and rng.random() < profile.delay_spike_prob:
            n_slow = int(rng.integers(1, max(2, min(3, len(eligible)))))
            picked = rng.choice(len(eligible), size=n_slow, replace=False)
            slow = tuple(sorted(eligible[i] for i in picked))
            lo, hi = profile.extra_delay_range
            extra = float(rng.uniform(lo, hi))
            start = float(rng.uniform(0.0, 0.5 * horizon))
            end = float(rng.uniform(start + 0.1 * horizon, horizon))
            events.append(DelaySpike(start, end, extra, slow))

        return cls(profile=profile.name, schedule=FaultSchedule(events))

    @staticmethod
    def sample_churn(
        rng: np.random.Generator,
        profile: ChaosProfile | str,
        present: Sequence[int],
        departed: Sequence[int] = (),
        max_leaves: int | None = None,
    ) -> ChurnDraw:
        """Draw one round boundary's membership churn from ``profile``.

        Deterministic in the generator state, like :meth:`sample`: peers
        are considered in sorted stable-id order.  ``max_leaves`` caps
        departures so the caller can keep at least ``k`` peers alive
        (pass None for no cap).
        """
        if isinstance(profile, str):
            try:
                profile = PROFILES[profile]
            except KeyError:
                raise ValueError(
                    f"unknown chaos profile {profile!r}; "
                    f"expected one of {sorted(PROFILES)}"
                ) from None
        leaves: list[int] = []
        for pid in sorted(present):
            if rng.random() >= profile.leave_rate:
                continue
            if max_leaves is not None and len(leaves) >= max_leaves:
                continue
            leaves.append(pid)
        rejoins = [
            pid for pid in sorted(departed)
            if rng.random() < profile.rejoin_prob
        ]
        n_joins = sum(
            1 for _ in range(MAX_JOINS)
            if rng.random() < profile.join_rate
        )
        return ChurnDraw(
            leaves=tuple(leaves), rejoins=tuple(rejoins), n_joins=n_joins
        )
