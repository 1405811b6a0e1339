"""Fault timelines: a :class:`FaultSchedule` as pure functions of time.

A :class:`FaultTimeline` is a schedule compiled into piecewise state
functions over virtual time.  It is the one source of fault *windows*
on both paths: :mod:`repro.simnet.waves` asks it "was this link up at
t?" or "what was the loss rate at t?" for a million (src, dst, t)
triples in one vectorized pass, and the per-message actor path
(``Network.physical_send``) asks :meth:`FaultTimeline.span_at` for the
windows in force at ``sim.now``, one binary search a send.
:meth:`FaultSchedule.arm` installs it as ``network.fault_timeline`` and
schedules only the node callbacks (``Crash`` / ``Recover``).

Semantics, the same for a wave and for an actor send:

- Every window is closed-start / open-end ``[t_start, t_end)``: a send
  *at* ``t_start`` is inside the window, whatever else happens at that
  instant, and a send at ``t_end`` is outside it.
- ``Crash`` without a matching ``Recover`` keeps the node down forever.
- ``LossWindow`` overrides — not adds to — the base loss rate.
- Overlapping :class:`DelaySpike` windows sum their extra delays for
  jointly affected endpoints, in script order, starting from ``0.0``;
  a message arrives at ``t + (latency + extra)``.
- During a :class:`PartitionWindow` a link is up only between two nodes
  of one group; a node outside every group is isolated.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import NamedTuple

import numpy as np

from .schedule import (
    Crash,
    DelaySpike,
    FaultSchedule,
    LossWindow,
    PartitionWindow,
    Recover,
)


class _PartitionSpan:
    """One partition window with O(log n) node → group lookup."""

    __slots__ = ("t_start", "t_end", "nodes", "groups")

    def __init__(self, window: PartitionWindow) -> None:
        self.t_start = window.t_start_ms
        self.t_end = window.t_end_ms
        pairs = sorted(
            (node, gi)
            for gi, group in enumerate(window.groups)
            for node in group
        )
        self.nodes = np.array([p[0] for p in pairs], dtype=np.int64)
        self.groups = np.array([p[1] for p in pairs], dtype=np.int64)

    def group_of(self, ids: np.ndarray) -> np.ndarray:
        """Group index per node; ``-1`` for nodes outside every group
        (those are isolated)."""
        pos = np.searchsorted(self.nodes, ids)
        pos = np.minimum(pos, len(self.nodes) - 1)
        out = self.groups[pos]
        out = np.where(self.nodes[pos] == ids, out, -1)
        return out


def _one_span(edges: np.ndarray, lo: float, hi: float):
    """The index of the span between consecutive ``edges`` (the number
    of edges at or below) that holds all of ``[lo, hi]``; ``None`` when
    it straddles an edge, is empty or holds a NaN."""
    if not lo <= hi:
        return None
    a, b = edges.searchsorted((lo, hi), "right")
    return int(a) if a == b else None


class _DelaySpan:
    __slots__ = ("t_start", "t_end", "extra", "nodes")

    def __init__(self, spike: DelaySpike) -> None:
        self.t_start = spike.t_start_ms
        self.t_end = spike.t_end_ms
        self.extra = spike.extra_delay_ms
        self.nodes = (
            None if spike.nodes is None
            else np.array(sorted(spike.nodes), dtype=np.int64)
        )


class _Span(NamedTuple):
    """The windows in force between two consecutive edges of the script,
    all one actor send asks (see :meth:`FaultTimeline.span_at`)."""

    loss_rate: float
    #: the spikes' summed delay; NaN while a node-scoped one is on, when
    #: ``spikes`` lists every spike on as ``(nodes or None, extra)``.
    extra: float
    spikes: tuple
    #: node -> group of the partition on, if any.
    groups: dict | None

    def extra_delay(self, src: int, dst: int) -> float:
        """The straggler delay of one ``src -> dst`` message, summed as
        :meth:`FaultTimeline.extra_delay_at` sums it."""
        if not self.spikes:
            return self.extra
        extra = 0.0
        for nodes, e in self.spikes:
            if nodes is None or src in nodes or dst in nodes:
                extra += e
        return extra


class FaultTimeline:
    """Array-query view of one :class:`FaultSchedule` (see module doc).

    Build with :meth:`FaultSchedule.timeline`.  All query methods accept
    equal-length numpy arrays and are pure functions of their inputs —
    the timeline holds no mutable state, so precomputing a whole wave's
    fates against it is sound.
    """

    def __init__(self, schedule: FaultSchedule, base_loss_rate: float = 0.0):
        self.schedule = schedule
        self.base_loss_rate = float(base_loss_rate)

        # Piecewise-constant loss rate.  Windows are validated
        # non-overlapping, so sorting by start gives disjoint spans.
        edges = [-np.inf]
        rates = [self.base_loss_rate]
        for w in sorted(
            (e for e in schedule.events if isinstance(e, LossWindow)),
            key=lambda w: w.t_start_ms,
        ):
            edges.extend((w.t_start_ms, w.t_end_ms))
            rates.extend((w.loss_rate, self.base_loss_rate))
        self._loss_edges = np.array(edges, dtype=np.float64)
        self._loss_rates = np.array(rates, dtype=np.float64)

        # Crash intervals [t_crash, t_recover) per node; no Recover
        # means the node stays down (end = +inf).  The schedule
        # validator forbids double crashes, so intervals per node are
        # disjoint and events arrive sorted by time.
        open_at: dict[int, float] = {}
        intervals: dict[int, list[tuple[float, float]]] = {}
        recoveries: dict[int, list[float]] = {}
        for event in schedule.events:
            if isinstance(event, Crash):
                open_at[event.node] = event.t_ms
            elif isinstance(event, Recover):
                start = open_at.pop(event.node)
                intervals.setdefault(event.node, []).append(
                    (start, event.t_ms)
                )
                recoveries.setdefault(event.node, []).append(event.t_ms)
        for node, start in open_at.items():
            intervals.setdefault(node, []).append((start, np.inf))
        # One row per crashed node, ascending: its intervals, padded with
        # [inf, inf), which no time falls in, and its last recovery (NaN:
        # none, which no time is at or below).
        self._crash_nodes = np.array(sorted(intervals), dtype=np.int64)
        width = max(map(len, intervals.values()), default=0)
        self._crash_start = np.full((len(intervals), width), np.inf)
        self._crash_end = np.full((len(intervals), width), np.inf)
        self._last_recovery = np.full(len(intervals), np.nan)
        for row, node in enumerate(self._crash_nodes.tolist()):
            spans = intervals[node]
            self._crash_start[row, :len(spans)] = [s for s, _ in spans]
            self._crash_end[row, :len(spans)] = [e for _, e in spans]
            if node in recoveries:
                self._last_recovery[row] = max(recoveries[node])

        self._partitions = [
            _PartitionSpan(e)
            for e in schedule.events
            if isinstance(e, PartitionWindow)
        ]
        self._spikes = [
            _DelaySpan(e) for e in schedule.events if isinstance(e, DelaySpike)
        ]
        # One span between each two consecutive edges of any window.
        windows = [e for e in schedule.events
                   if not isinstance(e, (Crash, Recover))]
        self._edges = sorted({t for w in windows
                              for t in (w.t_start_ms, w.t_end_ms)})
        groups = {id(w): {n: g for g, grp in enumerate(w.groups) for n in grp}
                  for w in windows if isinstance(w, PartitionWindow)}
        self._spans = []
        for t in (-np.inf, *self._edges):
            on = [w for w in windows if w.t_start_ms <= t < w.t_end_ms]
            spikes = [w for w in on if isinstance(w, DelaySpike)]
            extra = 0.0
            for sp in spikes:  # summed as :meth:`extra_delay_at` sums
                extra += sp.extra_delay_ms
            if any(sp.nodes is not None for sp in spikes):
                extra, spikes = math.nan, tuple(
                    (None if sp.nodes is None else frozenset(sp.nodes),
                     sp.extra_delay_ms) for sp in spikes)
            else:
                spikes = ()
            self._spans.append(_Span(
                next((w.loss_rate for w in on if isinstance(w, LossWindow)),
                     self.base_loss_rate),
                extra, spikes,
                next((groups[id(w)] for w in on if id(w) in groups), None),
            ))
        # The extra delay of every message sent inside each span between
        # consecutive spike edges (NaN while a node-scoped spike is on).
        self._delay_edges = np.unique(
            [t for sp in self._spikes for t in (sp.t_start, sp.t_end)])
        self._span_delay = [self.span_at(t).extra
                            for t in (-np.inf, *self._delay_edges.tolist())]
        self._recovers_until = dict(zip(self._crash_nodes.tolist(),
                                        self._last_recovery.tolist()))

    @property
    def max_loss_rate(self) -> float:
        """Highest loss rate anywhere on the timeline (base included)."""
        return float(self._loss_rates.max())

    @property
    def min_loss_rate(self) -> float:
        """Lowest loss rate anywhere on the timeline (base included)."""
        return float(self._loss_rates.min())

    # ------------------------------------------------------------- queries
    def span_at(self, t: float) -> _Span:
        """The windows in force at instant ``t``: loss rate, extra delay
        and partition for one actor send, from one binary search."""
        return self._spans[bisect_right(self._edges, t)]

    def may_recover(self, node: int, t: float) -> bool:
        """Whether ``node`` has a Recover at or after ``t`` (the scalar
        :meth:`recovery_at_or_after`)."""
        return t <= self._recovers_until.get(node, math.nan)

    @staticmethod
    def time_bounds(times: np.ndarray) -> tuple[float, float]:
        """``(min, max)`` of ``times``; ``(inf, -inf)`` when empty.  A
        cohort's bounds also bound every subset of it, so one pair serves
        its loss query and its survivors' delay query."""
        if not times.size:
            return np.inf, -np.inf
        return times.min(), times.max()

    def loss_rate_at(self, times: np.ndarray) -> np.ndarray:
        """Effective loss rate at each instant (base outside windows)."""
        times = np.asarray(times, dtype=np.float64)
        rate = self.loss_rate_within(times, *self.time_bounds(times))
        return np.full(times.shape, rate) if isinstance(rate, float) else rate

    def loss_rate_within(
        self, times: np.ndarray, lo: float, hi: float
    ) -> float | np.ndarray:
        """:meth:`loss_rate_at` for ``times`` known to lie in ``[lo, hi]``;
        that span's rate, one float, when the range falls in one span."""
        # The span index is the number of edges at or below each time
        # (a shared window edge counts twice, landing in the later
        # window): one compare pass per edge, where a binary search per
        # unsorted time costs several.  The bool masks add as bytes.
        edges = self._loss_edges[1:]
        span = _one_span(edges, lo, hi)
        if span is not None:
            return float(self._loss_rates[span])
        pos = np.zeros(times.shape, dtype=np.min_scalar_type(len(edges)))
        for edge in edges:
            pos += (times >= edge).view(np.uint8)
        return self._loss_rates[pos]

    def crashed_at(self, nodes: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Whether ``nodes[i]`` is down at ``times[i]``."""
        times = np.asarray(times, dtype=np.float64)
        row, sel = self._crash_rows(nodes)
        out = np.zeros(len(nodes), dtype=bool)
        if len(sel):
            t = times[sel][:, None]
            out[sel] = ((t >= self._crash_start[row])
                        & (t < self._crash_end[row])).any(axis=1)
        return out

    def _crash_rows(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The positions of ``nodes`` the script crashes, and their rows
        in ``_crash_nodes``: one binary search per node, as
        :meth:`_PartitionSpan.group_of` looks nodes up."""
        nodes = np.asarray(nodes)
        crashed = self._crash_nodes
        if not len(crashed):
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        row = np.minimum(crashed.searchsorted(nodes), len(crashed) - 1)
        sel = np.flatnonzero(crashed.take(row) == nodes)
        return row.take(sel), sel

    def can_go_down(self, nodes: np.ndarray) -> np.ndarray:
        """Whether the script can ever take ``nodes[i]`` down: it crashes
        at some time, or a partition is scripted (outsiders are isolated).
        Between other nodes :meth:`link_up_at` is ``True`` at any time."""
        nodes = np.asarray(nodes)
        if self._partitions:
            return np.ones(len(nodes), dtype=bool)
        return np.isin(nodes, self._crash_nodes)

    def recovery_at_or_after(
        self, nodes: np.ndarray, times: np.ndarray
    ) -> np.ndarray:
        """Whether ``nodes[i]`` has a Recover at ``t >= times[i]``
        (:meth:`may_recover`, vectorized)."""
        times = np.asarray(times, dtype=np.float64)
        row, sel = self._crash_rows(nodes)
        out = np.zeros(len(nodes), dtype=bool)
        out[sel] = times[sel] <= self._last_recovery[row]
        return out

    def link_up_at(
        self, src: np.ndarray, dst: np.ndarray, times: np.ndarray
    ) -> np.ndarray:
        """Whether the ``src → dst`` link carries traffic at each instant:
        both endpoints alive and (during a partition) in the same group."""
        src = np.asarray(src)
        dst = np.asarray(dst)
        times = np.asarray(times, dtype=np.float64)
        up = ~self.crashed_at(src, times) & ~self.crashed_at(dst, times)
        for span in self._partitions:
            sel = up & (times >= span.t_start) & (times < span.t_end)
            if not sel.any():
                continue
            gs = span.group_of(src[sel])
            gd = span.group_of(dst[sel])
            up[sel] &= (gs == gd) & (gs >= 0)
        return up

    def extra_delay_at(
        self, src: np.ndarray, dst: np.ndarray, times: np.ndarray
    ) -> np.ndarray:
        """Total straggler delay (ms) for messages *sent* at each instant."""
        times = np.asarray(times, dtype=np.float64)
        extra = self.extra_delay_within(
            np.asarray(src), np.asarray(dst), np.arange(len(times)), times,
            *self.time_bounds(times))
        return np.full(times.shape, extra) if isinstance(extra, float) else extra

    def extra_delay_within(
        self, src: np.ndarray, dst: np.ndarray, ids: np.ndarray,
        times: np.ndarray, lo: float, hi: float,
    ) -> float | np.ndarray:
        """:meth:`extra_delay_at` for messages ``ids`` of a wave with
        endpoints ``src``/``dst``, sent at ``times`` known to lie in
        ``[lo, hi]``: that span's summed delay, one float, when the range
        falls in one span free of node-scoped spikes.  The endpoints are
        gathered only for a node-scoped spike the times reach."""
        span = _one_span(self._delay_edges, lo, hi)
        if span is not None and not math.isnan(self._span_delay[span]):
            return self._span_delay[span]
        extra = np.zeros(len(times), dtype=np.float64)
        for span in self._spikes:
            sel = (times >= span.t_start) & (times < span.t_end)
            if not sel.any():
                continue
            if span.nodes is not None:
                sel &= (np.isin(src.take(ids), span.nodes)
                        | np.isin(dst.take(ids), span.nodes))
            # Adding 0.0 where the spike misses leaves those sums as they
            # were, bit for bit.
            extra += sel * span.extra
        return extra

    # ------------------------------------------------------- scalar sugar
    def describe(self) -> str:
        return self.schedule.describe()
