"""Declarative fault schedules and how they reach a network.

A :class:`FaultSchedule` is a value object — a validated, sorted tuple
of typed fault events — that can be armed on any
(:class:`~repro.simnet.events.Simulator`,
:class:`~repro.simnet.network.Network`) pair.  The same schedule can
therefore hit a standalone SAC round, a two-layer wire round, or a
two-layer Raft deployment, and the X-layer wave round reads it too.

Event types
-----------
- :class:`Crash` / :class:`Recover` — point events on one node.
- :class:`PartitionWindow` — the network splits into ``groups`` for the
  window; a node outside every group talks to nobody.
- :class:`LossWindow` — the loss rate is ``loss_rate`` for the window,
  the network's own rate outside it.
- :class:`DelaySpike` — a straggler window: affected nodes' messages
  take ``extra_delay_ms`` longer (both directions) until the window
  closes.

Every window reaches a round through the schedule's
:class:`~repro.chaos.timeline.FaultTimeline`, whose module states the
semantics; :meth:`FaultSchedule.arm` installs it and schedules the
events that need node callbacks, ``Crash`` and ``Recover``.  Failure
detectors ask the timeline, through ``network.may_recover(node)``,
whether a crashed node still has a :class:`Recover` pending (a
god's-eye shortcut for the detector a real deployment would build from
timeouts and NACKs).
"""

from __future__ import annotations

from collections.abc import Container
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Union

from ..obs import runtime as _obs
from ..simnet import Network, Simulator


@dataclass(frozen=True)
class Crash:
    """Node ``node`` fails-stop at ``t_ms``."""

    t_ms: float
    node: int


@dataclass(frozen=True)
class Recover:
    """Node ``node`` restarts (durable state intact) at ``t_ms``."""

    t_ms: float
    node: int


@dataclass(frozen=True)
class PartitionWindow:
    """The network splits into ``groups`` for [t_start_ms, t_end_ms)."""

    t_start_ms: float
    t_end_ms: float
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.t_start_ms < self.t_end_ms:
            raise ValueError("partition window must have t_start < t_end")
        if len(self.groups) < 2:
            raise ValueError("a partition needs at least two groups")
        counts = Counter(node for group in self.groups for node in group)
        twice = sorted(node for node, c in counts.items() if c > 1)
        if twice:
            raise ValueError(f"node {twice[0]} in multiple partition groups")


@dataclass(frozen=True)
class LossWindow:
    """Random message loss at ``loss_rate`` for [t_start_ms, t_end_ms)."""

    t_start_ms: float
    t_end_ms: float
    loss_rate: float

    def __post_init__(self) -> None:
        if not self.t_start_ms < self.t_end_ms:
            raise ValueError("loss window must have t_start < t_end")
        if not 0.0 < self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in (0, 1)")


@dataclass(frozen=True)
class DelaySpike:
    """Straggler window: ``nodes`` gain ``extra_delay_ms`` per message.

    ``nodes=None`` slows the whole network.  The spike applies to
    messages a straggler sends *or* receives, matching a node whose
    uplink and downlink are both congested.
    """

    t_start_ms: float
    t_end_ms: float
    extra_delay_ms: float
    nodes: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not self.t_start_ms < self.t_end_ms:
            raise ValueError("delay spike must have t_start < t_end")
        if self.extra_delay_ms <= 0:
            raise ValueError("extra_delay_ms must be positive")


FaultEvent = Union[Crash, Recover, PartitionWindow, LossWindow, DelaySpike]

def _start_time(event: FaultEvent) -> float:
    return event.t_ms if isinstance(event, (Crash, Recover)) else event.t_start_ms


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, validated sequence of fault events."""

    events: tuple[FaultEvent, ...]

    def __init__(self, events: Iterable[FaultEvent]) -> None:
        ordered = tuple(sorted(events, key=_start_time))
        object.__setattr__(self, "events", ordered)
        self._validate()

    def _validate(self) -> None:
        for cls in (PartitionWindow, LossWindow):
            windows = sorted(
                (e for e in self.events if isinstance(e, cls)),
                key=lambda w: w.t_start_ms,
            )
            for a, b in zip(windows, windows[1:]):
                if b.t_start_ms < a.t_end_ms:
                    raise ValueError(
                        f"overlapping {cls.__name__}s at "
                        f"t={b.t_start_ms} (previous ends {a.t_end_ms})"
                    )
        crashed: set[int] = set()
        for event in self.events:
            if isinstance(event, Crash):
                if event.node in crashed:
                    raise ValueError(f"node {event.node} crashed twice")
                crashed.add(event.node)
            elif isinstance(event, Recover):
                if event.node not in crashed:
                    raise ValueError(
                        f"node {event.node} recovers without a prior crash"
                    )
                crashed.discard(event.node)

    # ------------------------------------------------------------- inspection
    def crashes(self) -> tuple[Crash, ...]:
        return tuple(e for e in self.events if isinstance(e, Crash))

    def crashed_nodes(self) -> frozenset[int]:
        """Nodes that are down at the end of the schedule."""
        down: set[int] = set()
        for event in self.events:
            if isinstance(event, Crash):
                down.add(event.node)
            elif isinstance(event, Recover):
                down.discard(event.node)
        return frozenset(down)

    def touched_nodes(self) -> frozenset[int]:
        nodes: set[int] = set()
        for event in self.events:
            if isinstance(event, (Crash, Recover)):
                nodes.add(event.node)
            elif isinstance(event, PartitionWindow):
                for group in event.groups:
                    nodes.update(group)
            elif isinstance(event, DelaySpike) and event.nodes is not None:
                nodes.update(event.nodes)
        return frozenset(nodes)

    def end_ms(self) -> float:
        """Virtual time at which the last scheduled effect has applied."""
        end = 0.0
        for event in self.events:
            if isinstance(event, (Crash, Recover)):
                end = max(end, event.t_ms)
            else:
                end = max(end, event.t_end_ms)
        return end

    def shifted(self, offset_ms: float) -> "FaultSchedule":
        """The same schedule, translated ``offset_ms`` into the future."""
        moved: list[FaultEvent] = []
        for event in self.events:
            if isinstance(event, Crash):
                moved.append(Crash(event.t_ms + offset_ms, event.node))
            elif isinstance(event, Recover):
                moved.append(Recover(event.t_ms + offset_ms, event.node))
            elif isinstance(event, PartitionWindow):
                moved.append(PartitionWindow(
                    event.t_start_ms + offset_ms, event.t_end_ms + offset_ms,
                    event.groups,
                ))
            elif isinstance(event, LossWindow):
                moved.append(LossWindow(
                    event.t_start_ms + offset_ms, event.t_end_ms + offset_ms,
                    event.loss_rate,
                ))
            else:
                moved.append(DelaySpike(
                    event.t_start_ms + offset_ms, event.t_end_ms + offset_ms,
                    event.extra_delay_ms, event.nodes,
                ))
        return FaultSchedule(moved)

    def describe(self) -> str:
        """One-line human summary (CLI matrix rows)."""
        parts: list[str] = []
        for event in self.events:
            if isinstance(event, Crash):
                parts.append(f"crash({event.node})@{event.t_ms:.0f}")
            elif isinstance(event, Recover):
                parts.append(f"recover({event.node})@{event.t_ms:.0f}")
            elif isinstance(event, PartitionWindow):
                sizes = "|".join(str(len(g)) for g in event.groups)
                parts.append(
                    f"partition[{sizes}]@{event.t_start_ms:.0f}-{event.t_end_ms:.0f}"
                )
            elif isinstance(event, LossWindow):
                parts.append(
                    f"loss({event.loss_rate:.2f})"
                    f"@{event.t_start_ms:.0f}-{event.t_end_ms:.0f}"
                )
            else:
                parts.append(
                    f"spike(+{event.extra_delay_ms:.0f}ms)"
                    f"@{event.t_start_ms:.0f}-{event.t_end_ms:.0f}"
                )
        return " ".join(parts) if parts else "(fault-free)"

    def validate_nodes(self, node_ids: Iterable[int]) -> None:
        """Raise if the schedule touches a node outside ``node_ids``.

        Membership is asked of ``node_ids`` itself when it can answer
        (a ``range`` over 10^5 peers is never expanded into a set).
        """
        known = node_ids if isinstance(node_ids, Container) else set(node_ids)
        unknown = sorted(n for n in self.touched_nodes() if n not in known)
        if unknown:
            raise ValueError(f"schedule touches unknown nodes {unknown}")

    def timeline(self, base_loss_rate: float = 0.0):
        """Compile the schedule into a :class:`FaultTimeline`.

        ``base_loss_rate`` is the network's ambient loss rate outside
        every :class:`LossWindow`.  The timeline answers every window
        query of both the wave engine and the actor path; see
        :mod:`repro.chaos.timeline`.
        """
        from .timeline import FaultTimeline

        return FaultTimeline(self, base_loss_rate=base_loss_rate)

    # ----------------------------------------------------------------- arming
    def arm(self, sim: Simulator, network: Network) -> None:
        """Install the :meth:`timeline` as ``network.fault_timeline`` and
        schedule ``network.crash`` / ``recover`` at each :class:`Crash` /
        :class:`Recover`.  A second ``arm`` on the same network merges
        its events into the installed schedule, validated together."""
        installed = network.fault_timeline
        merged = self if installed is None else FaultSchedule(
            (*installed.schedule.events, *self.events))
        network.fault_timeline = merged.timeline(network.loss_rate)
        obs = _obs.OBS
        if obs.enabled:
            # node=None instant: in the event log (and an incident's
            # ring) without perturbing per-node profiles or straggler
            # joins.
            obs.emit(
                "chaos.armed", t_ms=sim.now, node=None,
                description=self.describe(), faults=len(self.events),
            )
        for event in self.events:
            if isinstance(event, Crash):
                sim.schedule_at(event.t_ms, partial(network.crash, event.node))
            elif isinstance(event, Recover):
                sim.schedule_at(event.t_ms,
                                partial(network.recover, event.node))
