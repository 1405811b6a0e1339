"""Resource accounting for the obs pipeline and the simulator.

- :func:`obs_self_accounting` — how many bytes the obs subsystem
  itself is holding (its collected events), so "obs is cheap enough" is
  a measured claim.
- :func:`resource_snapshot` — one JSON-able picture of process +
  simnet + obs resource usage: peak RSS, tracemalloc (when tracing),
  simulator heap occupancy, live message objects, self-accounting.
- :class:`ResourceProfiler` — the same peak-RSS/tracemalloc reads taken
  live around each workload phase (``python -m repro prof
  --resources``).
"""

from __future__ import annotations

import sys
import tracemalloc
from contextlib import contextmanager
from typing import Any, Iterator, Optional

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX
    _resource = None

__all__ = [
    "ResourceProfiler",
    "obs_self_accounting",
    "resource_snapshot",
    "format_resource_report",
]


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
    object: the collected events are everything it holds, each bounded
    by ``Event.approx_bytes``.
    """
    events = obs.events
    event_bytes = sum(e.approx_bytes() for e in events)
    return {
        "events_held": len(events),
        "event_bytes": event_bytes,
        "telemetry_bytes": event_bytes,
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
            f"  obs                 "
            f"{o['events_held']} events ({_mb(o['event_bytes'])})"
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
