"""Phase-attributed profiler over the span stream.

Turbo-Aggregate and SwiftAgg argue their aggregation-barrier claims with
per-phase runtime/communication breakdowns; this module produces those
breakdowns for our stack from data the obs pipeline already captures.
It consumes a run's collected :class:`~repro.obs.bus.Event` stream and
reconstructs:

- a **call tree** of span events (events carrying ``dur_ms``), keyed by
  the path of span names from the root, with *total* and *self* time on
  both clocks — sim time from ``t_ms``/``dur_ms``, wall time from the
  ``wall_ms`` field a sim-clocked :class:`~repro.obs.spans.Span` attaches;
- **per-phase byte counts** joined from the message plane: every
  ``net.deliver`` / ``net.drop`` event is attributed to the deepest span
  whose sim-time window contains it;
- **per-node straggler statistics**: within each phase window, each
  node's last activity timestamp; the gap between the slowest node and
  the median node is the phase's straggler gap.

Everything sim-side (total/self sim ms, bits, message counts, straggler
gaps) is a pure function of the event stream, so two runs with the same
seed produce bit-identical reports — the property the seed-exact pins in
``tests/integration/test_sim_pins.py`` rely on.  Wall-clock fields ride
along for humans and are excluded from determinism comparisons.

Call-tree reconstruction rules (deterministic, documented here because
spans from concurrent simulated actors genuinely overlap):

- span A is an ancestor of span B iff A's sim window *strictly*
  contains B's (``A.start <= B.start and A.end >= B.end`` and the
  windows are not identical); B's parent is the ancestor with the
  smallest window (ties: latest start, then lowest ``seq``);
- spans with identical windows are siblings (concurrent subgroup
  rounds all spanning the same sim interval must not nest);
- partially overlapping spans are siblings under their common ancestor;
- self time subtracts the *union* of the direct children's windows, so
  two concurrent children covering the same interval are not counted
  twice;
- spans without a sim clock (``t_ms is None``) carry wall time only:
  they aggregate by name at the tree root and join no messages.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .bus import Event

#: events of the message plane that carry ``bits``/``kind`` fields.
_DELIVER = "net.deliver"
_DROP = "net.drop"
#: causal-tracing send anchors (``observe(causal=True)``); excluded from
#: the straggler join so causal and non-causal runs profile identically.
_SEND = "net.send"


@dataclass
class _SpanInstance:
    """One concrete span occurrence placed in the call tree."""

    seq: int
    name: str
    start: float
    end: float
    wall_ms: Optional[float]
    node: Optional[int]
    parent: Optional["_SpanInstance"] = field(default=None, init=False)
    children: list["_SpanInstance"] = field(default_factory=list, init=False)
    depth: int = field(default=0, init=False)

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def path(self) -> tuple[str, ...]:
        names: list[str] = []
        inst: Optional[_SpanInstance] = self
        while inst is not None:
            names.append(inst.name)
            inst = inst.parent
        return tuple(reversed(names))


@dataclass
class StragglerStats:
    """Per-node completion spread inside one phase.

    ``gap_ms`` is slowest-vs-median (the quantity a straggler
    mitigation would recover), ``spread_ms`` slowest-vs-fastest.
    """

    nodes: int
    slowest_node: Optional[int]
    gap_ms: float
    spread_ms: float

    def to_dict(self) -> dict:
        return {
            "nodes": self.nodes,
            "slowest_node": self.slowest_node,
            "gap_ms": self.gap_ms,
            "spread_ms": self.spread_ms,
        }


@dataclass
class PhaseStats:
    """Aggregated statistics for one call-tree path."""

    path: tuple[str, ...]
    count: int = field(default=0, init=False)
    total_ms: float = field(default=0.0, init=False)
    self_ms: float = field(default=0.0, init=False)
    wall_total_ms: float = field(default=0.0, init=False)
    wall_self_ms: float = field(default=0.0, init=False)
    bits: float = field(default=0.0, init=False)
    messages: int = field(default=0, init=False)
    dropped: int = field(default=0, init=False)
    bits_by_kind: dict[str, float] = field(default_factory=dict, init=False)
    straggler: Optional[StragglerStats] = field(default=None, init=False)
    sim_clocked: bool = True

    @property
    def name(self) -> str:
        return self.path[-1]

    @property
    def depth(self) -> int:
        return len(self.path) - 1

    def to_dict(self) -> dict:
        out: dict = {
            "path": list(self.path),
            "count": self.count,
            "total_ms": self.total_ms,
            "self_ms": self.self_ms,
            "wall_total_ms": self.wall_total_ms,
            "wall_self_ms": self.wall_self_ms,
            "bits": self.bits,
            "messages": self.messages,
            "dropped": self.dropped,
            "bits_by_kind": dict(sorted(self.bits_by_kind.items())),
            "sim_clocked": self.sim_clocked,
        }
        out["straggler"] = (
            self.straggler.to_dict() if self.straggler is not None else None
        )
        return out


def _interval_union_ms(intervals: Sequence[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    if not intervals:
        return 0.0
    covered = 0.0
    cur_lo, cur_hi = None, None
    for lo, hi in sorted(intervals):
        if cur_lo is None:
            cur_lo, cur_hi = lo, hi
        elif lo <= cur_hi:
            cur_hi = max(cur_hi, hi)
        else:
            covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
    covered += cur_hi - cur_lo
    return covered


def _build_tree(spans: list[_SpanInstance]) -> list[_SpanInstance]:
    """Link parents/children by strict window containment; return roots."""
    # Containing windows sort first: by start asc, then end desc.  A
    # stack of open ancestors then gives each span its nearest strict
    # container in one pass.  Identical windows sort adjacently by seq
    # and fail the strict-containment test, landing as siblings.
    ordered = sorted(spans, key=lambda s: (s.start, -s.end, s.seq))
    stack: list[_SpanInstance] = []
    roots: list[_SpanInstance] = []
    for inst in ordered:
        while stack:
            top = stack[-1]
            strictly_contains = (
                top.start <= inst.start
                and top.end >= inst.end
                and (top.start, top.end) != (inst.start, inst.end)
            )
            if strictly_contains:
                break
            stack.pop()
        if stack:
            inst.parent = stack[-1]
            inst.depth = stack[-1].depth + 1
            stack[-1].children.append(inst)
        else:
            roots.append(inst)
        stack.append(inst)
    return roots


class ProfileReport:
    """The profiler's output: ordered phase stats plus export helpers."""

    def __init__(self, phases: list[PhaseStats], events_seen: int) -> None:
        self.phases = phases
        self.events_seen = events_seen

    def phase(self, *path: str) -> PhaseStats:
        """Stats for an exact call-tree path (raises ``KeyError``)."""
        want = tuple(path)
        for p in self.phases:
            if p.path == want:
                return p
        raise KeyError(f"no phase with path {want}")

    def named(self, name: str) -> list[PhaseStats]:
        """All phases whose leaf name matches (any depth)."""
        return [p for p in self.phases if p.name == name]

    def to_json(self) -> dict:
        return {
            "events_seen": self.events_seen,
            "phases": [p.to_dict() for p in self.phases],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    def format_table(self, limit: int | None = None) -> str:
        """"Top phases" table, the most self-time first."""
        ranked = sorted(self.phases, key=lambda p: p.self_ms, reverse=True)
        if limit is not None:
            ranked = ranked[:limit]
        lines = [
            f"{'phase':<42}{'cnt':>5}{'total ms':>11}{'self ms':>11}"
            f"{'wall ms':>10}{'Mb':>9}{'msgs':>7}{'straggle':>10}"
        ]
        for p in ranked:
            label = ("  " * p.depth + p.name)[:42]
            strag = (
                f"{p.straggler.gap_ms:9.1f}" if p.straggler is not None
                else f"{'-':>9}"
            )
            lines.append(
                f"{label:<42}{p.count:>5}{p.total_ms:>11.2f}{p.self_ms:>11.2f}"
                f"{p.wall_total_ms:>10.2f}{p.bits / 1e6:>9.2f}"
                f"{p.messages:>7}{strag:>10}"
            )
        return "\n".join(lines)


def profile_events(events: Iterable[Event]) -> ProfileReport:
    """Build a :class:`ProfileReport` from a run's collected events."""
    events = list(events)
    sim_spans: list[_SpanInstance] = []
    wall_spans: list[_SpanInstance] = []
    messages: list[Event] = []
    # Per-node activity points for the straggler join: (t, node, seq).
    activity: list[tuple[float, int]] = []

    for e in events:
        if e.dur_ms is not None:
            wall = e.fields.get("wall_ms")
            if e.t_ms is not None:
                sim_spans.append(_SpanInstance(
                    e.seq, e.name, float(e.t_ms), float(e.t_ms) + float(e.dur_ms),
                    float(wall) if wall is not None else None, e.node,
                ))
            else:
                wall_spans.append(_SpanInstance(
                    e.seq, e.name, 0.0, 0.0, float(e.dur_ms), e.node,
                ))
        if e.name in (_DELIVER, _DROP) and e.t_ms is not None:
            messages.append(e)
        if e.node is not None and e.t_ms is not None and e.name != _SEND:
            activity.append((float(e.t_ms), e.node))

    roots = _build_tree(sim_spans)

    # Aggregate instances by path, in deterministic pre-order.
    stats: dict[tuple[str, ...], PhaseStats] = {}
    order: list[tuple[str, ...]] = []

    def visit(inst: _SpanInstance) -> None:
        path = inst.path
        ps = stats.get(path)
        if ps is None:
            ps = stats[path] = PhaseStats(path)
            order.append(path)
        ps.count += 1
        ps.total_ms += inst.dur
        child_windows = [
            (max(c.start, inst.start), min(c.end, inst.end))
            for c in inst.children
        ]
        ps.self_ms += inst.dur - _interval_union_ms(child_windows)
        if inst.wall_ms is not None:
            ps.wall_total_ms += inst.wall_ms
            child_wall = sum(c.wall_ms or 0.0 for c in inst.children)
            ps.wall_self_ms += max(0.0, inst.wall_ms - child_wall)
        for child in inst.children:
            visit(child)

    for root in sorted(roots, key=lambda s: (s.start, -s.end, s.seq)):
        visit(root)

    # ------------------------------------------------- message-plane join
    # Attribute each delivered/dropped message to the deepest span whose
    # window contains its timestamp (ties: latest start, lowest seq).
    def deepest_at(t: float) -> Optional[_SpanInstance]:
        best: Optional[_SpanInstance] = None
        for inst in sim_spans:
            if inst.start <= t <= inst.end:
                if (
                    best is None
                    or inst.depth > best.depth
                    or (inst.depth == best.depth and inst.start > best.start)
                    or (
                        inst.depth == best.depth
                        and inst.start == best.start
                        and inst.seq < best.seq
                    )
                ):
                    best = inst
        return best

    for msg in messages:
        inst = deepest_at(float(msg.t_ms))
        if inst is None:
            continue
        ps = stats[inst.path]
        bits = float(msg.fields.get("bits", 0.0))
        kind = str(msg.fields.get("kind", "msg"))
        # Delivery-wave events aggregate a whole run: ``count`` carries
        # the message count (absent on scalar per-message events).
        count = int(msg.fields.get("count", 1))
        if msg.name == _DELIVER:
            ps.bits += bits
            ps.messages += count
            ps.bits_by_kind[kind] = ps.bits_by_kind.get(kind, 0.0) + bits
        else:
            ps.dropped += count

    # ------------------------------------------------------ straggler join
    # For every instance: each node's last activity timestamp inside the
    # window; the phase's straggler gap is slowest-vs-median of those.
    per_path_gaps: dict[tuple[str, ...], list[StragglerStats]] = {}
    for inst in sim_spans:
        last_by_node: dict[int, float] = {}
        for t, node in activity:
            if inst.start <= t <= inst.end:
                prev = last_by_node.get(node)
                if prev is None or t > prev:
                    last_by_node[node] = t
        if len(last_by_node) < 2:
            continue
        finishes = sorted(
            (t, node) for node, t in last_by_node.items()
        )
        times = [t for t, _ in finishes]
        mid = times[len(times) // 2] if len(times) % 2 else (
            (times[len(times) // 2 - 1] + times[len(times) // 2]) / 2.0
        )
        slowest_t, slowest_node = finishes[-1]
        per_path_gaps.setdefault(inst.path, []).append(StragglerStats(
            nodes=len(finishes),
            slowest_node=slowest_node,
            gap_ms=slowest_t - mid,
            spread_ms=slowest_t - times[0],
        ))
    for path, gaps in per_path_gaps.items():
        worst = max(gaps, key=lambda g: (g.gap_ms, g.spread_ms))
        stats[path].straggler = worst

    phases = [stats[p] for p in order]

    # Wall-only spans aggregate by bare name after the sim-clocked tree.
    wall_stats: dict[tuple[str, ...], PhaseStats] = {}
    wall_order: list[tuple[str, ...]] = []
    for inst in sorted(wall_spans, key=lambda s: s.seq):
        path = (inst.name,)
        ps = wall_stats.get(path)
        if ps is None:
            ps = wall_stats[path] = PhaseStats(path, sim_clocked=False)
            wall_order.append(path)
        ps.count += 1
        ps.wall_total_ms += inst.wall_ms or 0.0
        ps.wall_self_ms += inst.wall_ms or 0.0
    phases.extend(wall_stats[p] for p in wall_order)

    return ProfileReport(phases, events_seen=len(events))
