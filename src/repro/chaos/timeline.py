"""Vectorized fault timelines: a :class:`FaultSchedule` as array queries.

The armed schedule (:meth:`FaultSchedule.arm`) injects faults by
mutating live network state from simulator callbacks — correct for
actor-driven rounds, but useless to the wave engine, which computes a
whole batch of delivery fates *at issue time* in numpy.  A
:class:`FaultTimeline` is the same schedule compiled into piecewise
state functions over virtual time, so `repro.simnet.waves` can ask
"was this link up at t?" or "what was the loss rate at t?" for a
million (src, dst, t) triples in one vectorized pass.

Semantics mirror the armed event callbacks exactly:

- Every window is closed-start / open-end ``[t_start, t_end)``: an
  armed event scheduled at ``t`` holds a smaller heap sequence number
  than any message activity scheduled later at the same instant, so
  state changes at ``t`` are visible to sends *at* ``t``.
- ``Crash`` without a matching ``Recover`` keeps the node down forever.
- ``LossWindow`` overrides — not adds to — the base loss rate, exactly
  like the armed ``set_loss_rate`` swap.
- Overlapping :class:`DelaySpike` windows sum their extra delays for
  jointly affected endpoints (the armed path nests ``_SpikedLatency``
  wrappers, which also sums).

The X-layer wire round installs the timeline on its network as
``net.fault_timeline``: it switches ``send_batch`` into item mode and is
the only fault source a wave reads.  The actor path (``physical_send``)
never consults it; its faults come from an armed schedule, on which
``send_batch`` raises.
"""

from __future__ import annotations

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
        (those are isolated, matching ``Network.set_partition``)."""
        pos = np.searchsorted(self.nodes, ids)
        pos = np.minimum(pos, len(self.nodes) - 1)
        out = self.groups[pos]
        out = np.where(self.nodes[pos] == ids, out, -1)
        return out


def _one_span(edges: np.ndarray, times: np.ndarray):
    """The index of the span between consecutive ``edges`` (the number
    of edges at or below) that holds every one of ``times``; ``None``
    when they straddle an edge, are empty or hold a NaN."""
    if not times.size:
        return None
    lo, hi = times.min(), times.max()
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
        # The extra delay of every message sent inside each span between
        # consecutive spike edges (NaN while a node-scoped spike is on),
        # summed as :meth:`extra_delay_at` sums it.
        self._delay_edges = np.unique(
            [t for sp in self._spikes for t in (sp.t_start, sp.t_end)])
        self._span_delay = []
        for t in (-np.inf, *self._delay_edges.tolist()):
            extra = 0.0
            for sp in self._spikes:
                on = sp.t_start <= t < sp.t_end
                if on and sp.nodes is not None:
                    extra = np.nan
                    break
                extra += on * sp.extra
            self._span_delay.append(extra)

    @property
    def max_loss_rate(self) -> float:
        """Highest loss rate anywhere on the timeline (base included)."""
        return float(self._loss_rates.max())

    @property
    def min_loss_rate(self) -> float:
        """Lowest loss rate anywhere on the timeline (base included)."""
        return float(self._loss_rates.min())

    # ------------------------------------------------------------- queries
    def loss_rate_at(self, times: np.ndarray) -> np.ndarray:
        """Effective loss rate at each instant (base outside windows);
        a read-only broadcast when every instant falls in one span."""
        times = np.asarray(times, dtype=np.float64)
        # The span index is the number of edges at or below each time
        # (a shared window edge counts twice, landing in the later
        # window): one compare pass per edge, where a binary search per
        # unsorted time costs several.  The bool masks add as bytes.
        edges = self._loss_edges[1:]
        span = _one_span(edges, times)
        if span is not None:
            return np.broadcast_to(self._loss_rates[span], times.shape)
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
        (the ``may_recover`` oracle, vectorized)."""
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
        """Total straggler delay (ms) for messages *sent* at each instant;
        a read-only broadcast when every instant falls in one span free of
        node-scoped spikes."""
        src = np.asarray(src)
        dst = np.asarray(dst)
        times = np.asarray(times, dtype=np.float64)
        span = _one_span(self._delay_edges, times)
        if span is not None and not np.isnan(self._span_delay[span]):
            return np.broadcast_to(self._span_delay[span], times.shape)
        extra = np.zeros(len(times), dtype=np.float64)
        for span in self._spikes:
            sel = (times >= span.t_start) & (times < span.t_end)
            if span.nodes is not None:
                sel &= np.isin(src, span.nodes) | np.isin(dst, span.nodes)
            # Adding 0.0 where the spike misses leaves those sums as they
            # were, bit for bit.
            if sel.any():
                extra += sel * span.extra
        return extra

    # ------------------------------------------------------- scalar sugar
    def describe(self) -> str:
        return self.schedule.describe()
