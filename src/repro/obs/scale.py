"""Scale-ready observability: rollup retention and resource accounting.

PR 1–6 built an obs stack that retains *everything* — full event
streams, raw histogram observations, one span per simulated message.
At the ROADMAP's 10⁵–10⁶-peer target that telemetry grows linearly
with peer count and dominates memory long before the simnet core does.
This module is the bounded-memory alternative:

- :class:`RollupCollector` — the ``retention="rollup"`` event sink.
  Instead of keeping every :class:`~repro.obs.bus.Event`, it maintains
  per-name and per-category counters, bounded time-windowed counts,
  and a small deterministic reservoir of exemplar events per name.
  Memory is O(#distinct names + #windows), independent of event count.
- :func:`obs_self_accounting` — how many bytes the obs subsystem
  itself is holding (events, metrics, rollups), so "obs is cheap
  enough" is a measured claim.
- :func:`resource_snapshot` — one JSON-able picture of process +
  simnet + obs resource usage: peak RSS, tracemalloc (when tracing),
  simulator heap occupancy, live message objects, self-accounting.
- :class:`ResourceProfiler` — the same peak-RSS/tracemalloc reads taken
  live around each workload phase (``python -m repro prof
  --resources``).

Selection is a constructor policy on
:class:`~repro.obs.runtime.Observability`::

    with observe(retention="rollup") as obs:   # bounded memory
        run_two_layer_wire_round(...)
    obs.rollup.snapshot()

Default retention stays ``"full"`` — nothing changes for existing
paths, and the seed-exact sim pins are byte-identical.
"""

from __future__ import annotations

import hashlib
import sys
import tracemalloc
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from .bus import Event, EventBus

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX
    _resource = None

__all__ = [
    "ResourceProfiler",
    "RollupCollector",
    "obs_self_accounting",
    "resource_snapshot",
    "format_resource_report",
]


class RollupCollector:
    """Bounded-memory event sink: counters + windows + exemplars.

    Subscribes to an :class:`EventBus` like
    :class:`~repro.obs.export.EventCollector`, but never retains the
    stream.  Held state:

    - ``by_name[name]`` / ``by_category[cat]`` — total counts;
    - ``sim_ms_by_name[name]`` — summed ``dur_ms`` for span events
      (per-phase time survives the rollup);
    - windowed counts: per ``window_ms`` bucket of virtual time, a
      per-category count.  At most ``max_windows`` buckets are kept;
      older buckets are folded into ``evicted_window_events`` (counted,
      not lost silently);
    - exemplars: per event name, a reservoir of ``exemplars_per_name``
      compact samples.  Replacement uses Algorithm R with a blake2b
      hash as the randomness source, so the kept exemplars are a pure
      function of ``(seed, name, arrival index)`` — deterministic.
    """

    def __init__(
        self,
        window_ms: float = 1000.0,
        max_windows: int = 256,
        exemplars_per_name: int = 4,
        seed: int = 0,
    ) -> None:
        if window_ms <= 0:
            raise ValueError("window_ms must be positive")
        if max_windows < 1:
            raise ValueError("max_windows must be >= 1")
        self.window_ms = float(window_ms)
        self.max_windows = int(max_windows)
        self.exemplars_per_name = int(exemplars_per_name)
        self.seed = int(seed)
        self.total = 0
        self.by_name: Dict[str, int] = {}
        self.by_category: Dict[str, int] = {}
        self.sim_ms_by_name: Dict[str, float] = {}
        #: window start (ms, multiple of window_ms) -> {category: count}
        self.windows: "OrderedDict[float, Dict[str, int]]" = OrderedDict()
        self.evicted_window_events = 0
        self._exemplars: Dict[str, List[dict]] = {}

    # ----------------------------------------------------------------- sink
    def attach(self, bus: EventBus) -> "RollupCollector":
        bus.subscribe(self)
        return self

    def __call__(self, event: Event) -> None:
        self.total += 1
        name = event.name
        self.by_name[name] = self.by_name.get(name, 0) + 1
        cat = event.category
        self.by_category[cat] = self.by_category.get(cat, 0) + 1
        if event.dur_ms is not None:
            self.sim_ms_by_name[name] = (
                self.sim_ms_by_name.get(name, 0.0) + event.dur_ms
            )
        if event.t_ms is not None:
            start = (event.t_ms // self.window_ms) * self.window_ms
            win = self.windows.get(start)
            if win is None:
                win = self.windows[start] = {}
                while len(self.windows) > self.max_windows:
                    _, old = self.windows.popitem(last=False)
                    self.evicted_window_events += sum(old.values())
            win[cat] = win.get(cat, 0) + 1
        self._reservoir(name, event)

    def _reservoir(self, name: str, event: Event) -> None:
        k = self.exemplars_per_name
        if k <= 0:
            return
        bucket = self._exemplars.setdefault(name, [])
        i = self.by_name[name] - 1  # 0-based arrival index for this name
        if len(bucket) < k:
            bucket.append(self._compact(event))
            return
        # Algorithm R, derandomized: j ~ U[0, i] from a blake2b hash.
        digest = hashlib.blake2b(
            f"{self.seed}:{name}:{i}".encode(), digest_size=8
        ).digest()
        j = int.from_bytes(digest, "big") % (i + 1)
        if j < k:
            bucket[j] = self._compact(event)

    @staticmethod
    def _compact(event: Event) -> dict:
        """A bounded exemplar: identity + timing, never the field dict."""
        out: dict = {"seq": event.seq, "t_ms": event.t_ms}
        if event.node is not None:
            out["node"] = event.node
        if event.dur_ms is not None:
            out["dur_ms"] = event.dur_ms
        return out

    # ------------------------------------------------------------- read side
    def exemplars(self, name: str) -> List[dict]:
        return list(self._exemplars.get(name, ()))

    def snapshot(self) -> dict:
        """JSON-able rollup state for /status and flight manifests."""
        return {
            "total": self.total,
            "window_ms": self.window_ms,
            "by_name": dict(sorted(self.by_name.items())),
            "by_category": dict(sorted(self.by_category.items())),
            "sim_ms_by_name": dict(sorted(self.sim_ms_by_name.items())),
            "windows": {
                f"{start:g}": dict(sorted(counts.items()))
                for start, counts in self.windows.items()
            },
            "evicted_window_events": self.evicted_window_events,
            "exemplars": {
                name: list(samples)
                for name, samples in sorted(self._exemplars.items())
            },
        }

    def approx_bytes(self) -> int:
        """Bound on held memory — O(names + windows), not O(events)."""
        n = 128
        for d in (self.by_name, self.by_category, self.sim_ms_by_name):
            n += sum(64 + len(k) for k in d)
        n += sum(64 + 32 * len(w) for w in self.windows.values())
        n += sum(
            64 + len(name) + 96 * len(samples)
            for name, samples in self._exemplars.items()
        )
        return n


# --------------------------------------------------------------------------
# Resource accounting.
# --------------------------------------------------------------------------


def _peak_rss_bytes() -> Optional[int]:
    """Process peak RSS in bytes (``ru_maxrss``; KiB on Linux)."""
    if _resource is None:
        return None
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    # macOS reports bytes; Linux reports KiB.
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


def obs_self_accounting(obs: Any) -> dict:
    """Bytes/objects the obs pipeline itself retains right now.

    Works on any :class:`~repro.obs.runtime.Observability`-shaped
    object; each component reports its own deterministic bound (see
    ``Event.approx_bytes`` / ``MetricsRegistry.approx_bytes``).
    """
    events = obs.events
    event_bytes = sum(e.approx_bytes() for e in events)
    metrics = obs.metrics
    rollup = getattr(obs, "rollup", None)
    rollup_bytes = rollup.approx_bytes() if rollup is not None else 0
    return {
        "retention": getattr(obs, "retention", "full"),
        "events_held": len(events),
        "event_bytes": event_bytes,
        "metric_bytes": metrics.approx_bytes(),
        "metric_observations": metrics.observation_count(),
        "rollup_bytes": rollup_bytes,
        "rollup_events_seen": rollup.total if rollup is not None else 0,
        "telemetry_bytes": event_bytes + metrics.approx_bytes() + rollup_bytes,
    }


def resource_snapshot(
    obs: Any = None,
    sim: Any = None,
    network: Any = None,
) -> dict:
    """One JSON-able picture of process + simnet + obs resource usage.

    Every section degrades gracefully: ``tracemalloc`` appears only
    while tracing is active, simnet sections only when a
    simulator/network is passed, obs self-accounting only with a
    pipeline.
    """
    snap: dict = {"peak_rss_bytes": _peak_rss_bytes()}
    if tracemalloc.is_tracing():
        current, peak = tracemalloc.get_traced_memory()
        snap["tracemalloc"] = {"current_bytes": current, "peak_bytes": peak}
    if sim is not None:
        snap["sim_heap"] = sim.heap_stats()
    if network is not None:
        snap["messages"] = {
            "in_flight": network.in_flight,
            "peak_in_flight": network.peak_in_flight,
        }
    if obs is not None:
        snap["obs"] = obs_self_accounting(obs)
    return snap


def _mb(n: Optional[int], fmt: str = "{:.2f} MB") -> str:
    return "n/a" if n is None else fmt.format(n / 1e6)


def format_resource_report(snap: dict) -> str:
    """Human-readable rendering of a :func:`resource_snapshot`."""
    lines = ["resource snapshot:"]
    lines.append(f"  peak RSS            {_mb(snap.get('peak_rss_bytes'))}")
    tm = snap.get("tracemalloc")
    if tm:
        lines.append(
            f"  tracemalloc         {_mb(tm['current_bytes'])} current, "
            f"{_mb(tm['peak_bytes'])} peak"
        )
    heap = snap.get("sim_heap")
    if heap:
        lines.append(
            f"  sim heap            {heap['pending']} pending "
            f"(peak {heap['peak_pending']}, "
            f"{heap['scheduled_total']} scheduled, "
            f"{heap['events_processed']} processed)"
        )
    msgs = snap.get("messages")
    if msgs:
        lines.append(
            f"  messages            {msgs['in_flight']} in flight "
            f"(peak {msgs['peak_in_flight']})"
        )
    o = snap.get("obs")
    if o:
        lines.append(
            f"  obs [{o['retention']}]      "
            f"{o['events_held']} events ({_mb(o['event_bytes'])}), "
            f"metrics {_mb(o['metric_bytes'])} "
            f"({o['metric_observations']} observations), "
            f"rollup {_mb(o['rollup_bytes'])}"
        )
        lines.append(
            f"  telemetry total     {_mb(o['telemetry_bytes'])}"
        )
    return "\n".join(lines)


class ResourceProfiler:
    """Per-phase peak-RSS and ``tracemalloc`` deltas.

    Memory cannot be reconstructed from the event stream after the
    fact, so unlike :func:`~repro.obs.prof.profile_events` this profiler
    is *live*: wrap each workload phase in :meth:`phase` and it records,
    per phase, the allocated-bytes delta, the in-phase ``tracemalloc``
    peak, and any growth of the process peak RSS.  Used by
    ``python -m repro prof --resources``.

    ``tracemalloc`` is started on entry to the first phase if it is not
    already tracing (and stopped again by :meth:`close` only if this
    profiler started it).  Tracing costs real wall time, so never time a
    run that is also being resource-profiled.
    """

    def __init__(self) -> None:
        self._started_tracing = False
        #: (name, {delta/peak/rss fields}) in phase-entry order.
        self.phases: list[tuple[str, dict]] = []

    @contextmanager
    def phase(self, name: str) -> "Iterator[None]":
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracing = True
        tracemalloc.reset_peak()
        before_alloc, _ = tracemalloc.get_traced_memory()
        before_rss = _peak_rss_bytes()
        try:
            yield
        finally:
            after_alloc, peak_alloc = tracemalloc.get_traced_memory()
            after_rss = _peak_rss_bytes()
            self.phases.append((name, {
                "alloc_delta_bytes": after_alloc - before_alloc,
                "alloc_peak_bytes": peak_alloc,
                "rss_growth_bytes": (
                    after_rss - before_rss
                    if before_rss is not None and after_rss is not None
                    else None
                ),
            }))

    def close(self) -> None:
        if self._started_tracing and tracemalloc.is_tracing():
            tracemalloc.stop()
            self._started_tracing = False

    def __enter__(self) -> "ResourceProfiler":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -------------------------------------------------------------- read side
    def to_json(self) -> dict:
        return {"phases": [
            {"name": name, **stats} for name, stats in self.phases
        ]}

    def format_table(self) -> str:
        lines = [
            "resource profile (MB):",
            f"  {'phase':<28} {'alloc Δ':>9} {'alloc peak':>10} {'rss Δ':>9}",
        ]
        for name, stats in self.phases:
            row = [_mb(stats[k], "{:8.2f}") for k in (
                "alloc_delta_bytes", "alloc_peak_bytes", "rss_growth_bytes")]
            lines.append(f"  {name:<28} {row[0]:>9} {row[1]:>10} {row[2]:>9}")
        return "\n".join(lines)
