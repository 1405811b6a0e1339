"""Declarative fault schedules and the applier that arms them.

A :class:`FaultSchedule` is a value object — a validated, sorted tuple
of typed fault events — that can be armed on any
(:class:`~repro.simnet.events.Simulator`,
:class:`~repro.simnet.network.Network`) pair.  The same schedule can
therefore hit a standalone SAC round, a two-layer wire round, or a
two-layer Raft deployment: the injection mechanics (crash, recover,
partition, loss, latency spike) all live in the network layer the three
stacks share.

Event types
-----------
- :class:`Crash` / :class:`Recover` — point events on one node.
- :class:`PartitionWindow` — ``set_partition(groups)`` at ``t_start_ms``
  and heal at ``t_end_ms``.
- :class:`LossWindow` — raise ``loss_rate`` for the window, then restore
  whatever rate the network had before.
- :class:`DelaySpike` — a straggler window: affected nodes' messages
  take ``extra_delay_ms`` longer (both directions) until the window
  closes.

Arming returns an :class:`ArmedSchedule`, which doubles as the
network's ``fault_oracle``: protocol-level failure detectors ask it
whether a crashed node still has a :class:`Recover` pending before
declaring a round unrecoverable (a god's-eye shortcut for the failure
detector a real deployment would build from timeouts and NACKs).
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import dataclass, field
from typing import Iterable, Union

import numpy as np

from ..obs import runtime as _obs
from ..simnet import Network, Simulator
from ..simnet.network import LatencyModel


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

_WINDOW_TYPES = (PartitionWindow, LossWindow, DelaySpike)


def _start_time(event: FaultEvent) -> float:
    return event.t_ms if isinstance(event, (Crash, Recover)) else event.t_start_ms


class _SpikedLatency:
    """Wraps a latency model, adding spike delay for affected endpoints."""

    def __init__(self, base: LatencyModel, spike: DelaySpike) -> None:
        self.base = base
        self.spike = spike
        self._affected = None if spike.nodes is None else set(spike.nodes)

    def sample(self, src: int, dst: int, rng: np.random.Generator) -> float:
        delay = self.base.sample(src, dst, rng)
        if self._affected is None or src in self._affected or dst in self._affected:
            delay += self.spike.extra_delay_ms
        return delay

    def sample_batch(
        self, src_ids: np.ndarray, dst_ids: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        delays = self.base.sample_batch(src_ids, dst_ids, rng)
        if self._affected is None:
            return delays + self.spike.extra_delay_ms
        affected = np.fromiter(self._affected, dtype=np.int64)
        hit = np.isin(src_ids, affected) | np.isin(dst_ids, affected)
        return delays + np.where(hit, self.spike.extra_delay_ms, 0.0)


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
        """Compile the schedule into a vectorized :class:`FaultTimeline`.

        ``base_loss_rate`` is the network's ambient loss rate outside
        every :class:`LossWindow` (the armed path restores it when a
        window closes).  The timeline powers the wave engine's
        issue-time fault queries; see :mod:`repro.chaos.timeline`.
        """
        from .timeline import FaultTimeline

        return FaultTimeline(self, base_loss_rate=base_loss_rate)

    # ----------------------------------------------------------------- arming
    def arm(self, sim: Simulator, network: Network) -> "ArmedSchedule":
        """Schedule every event on ``sim`` against ``network``.

        Also installs the returned applier as the network's
        ``fault_oracle`` so failure detectors can distinguish permanent
        crashes from ones with a recovery pending, and a compiled
        :class:`FaultTimeline` as ``network.fault_timeline`` so
        ``send_batch`` waves issued on the same network see the same
        faults (the timeline captures the network's current ambient
        loss rate; it is inert for the per-message actor path).
        """
        armed = ArmedSchedule(schedule=self, sim=sim, network=network)
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
                sim.schedule_at(
                    event.t_ms, lambda e=event: network.crash(e.node)
                )
            elif isinstance(event, Recover):
                sim.schedule_at(
                    event.t_ms, lambda e=event: network.recover(e.node)
                )
            elif isinstance(event, PartitionWindow):
                sim.schedule_at(
                    event.t_start_ms,
                    lambda e=event: network.set_partition(
                        [list(g) for g in e.groups]
                    ),
                )
                sim.schedule_at(
                    event.t_end_ms, lambda: network.set_partition(None)
                )
            elif isinstance(event, LossWindow):
                sim.schedule_at(
                    event.t_start_ms, lambda e=event: armed._open_loss(e)
                )
                sim.schedule_at(event.t_end_ms, armed._close_loss)
            elif isinstance(event, DelaySpike):
                sim.schedule_at(
                    event.t_start_ms, lambda e=event: armed._open_spike(e)
                )
                sim.schedule_at(
                    event.t_end_ms, lambda e=event: armed._close_spike(e)
                )
        network.fault_oracle = armed
        network.fault_timeline = self.timeline(network.loss_rate)
        return armed


@dataclass
class ArmedSchedule:
    """Live injection state for one armed :class:`FaultSchedule`."""

    schedule: FaultSchedule
    sim: Simulator
    network: Network
    _saved_loss_rate: float | None = field(default=None, init=False, repr=False)
    _base_latency: LatencyModel | None = field(default=None, init=False, repr=False)
    _open_spikes: list = field(default_factory=list, init=False, repr=False)

    # ------------------------------------------------------------ window glue
    def _open_loss(self, window: LossWindow) -> None:
        self._saved_loss_rate = self.network.loss_rate
        self.network.set_loss_rate(window.loss_rate)

    def _close_loss(self) -> None:
        self.network.set_loss_rate(self._saved_loss_rate or 0.0)
        self._saved_loss_rate = None

    def _open_spike(self, spike: DelaySpike) -> None:
        if not self._open_spikes:
            self._base_latency = self.network.latency
        self._open_spikes.append(spike)
        self.network.latency = _SpikedLatency(self.network.latency, spike)

    def _close_spike(self, spike: DelaySpike) -> None:
        # Re-wrap the base in the spikes still open, in opening order:
        # overlapping spikes sum, and each close removes only its own.
        self._open_spikes.remove(spike)
        latency = self._base_latency
        for other in self._open_spikes:
            latency = _SpikedLatency(latency, other)
        self.network.latency = latency

    # ---------------------------------------------------------------- oracle
    def may_recover(self, node_id: int, now_ms: float) -> bool:
        """Whether ``node_id`` has a :class:`Recover` at or after ``now_ms``."""
        return any(
            isinstance(e, Recover) and e.node == node_id and e.t_ms >= now_ms
            for e in self.schedule.events
        )
