"""Unified observability: event tracing, spans, and exporters.

The paper's entire evaluation (Figs. 6–14) is built on *observing* the
system — per-round traffic, election downtime, recovery timelines.
This package is that instrumentation as a first-class subsystem:

- :mod:`.bus` — typed events with sim-time + wall-time (per-message
  byte accounting stays on each network's own
  :class:`~repro.simnet.trace.TraceRecorder`);
- :mod:`.spans` — phase timers over the virtual and wall clocks;
- :mod:`.export` — JSONL event logs (written and read back), Chrome
  ``trace_event`` JSON (renders as a timeline in ``about://tracing`` /
  Perfetto), and Prometheus text reduced from the events;
- :mod:`.runtime` — the process-global on/off switch: instrumented hot
  paths guard on ``runtime.OBS.enabled`` and cost nothing when off;
- :mod:`.logging` — a leveled logger that doubles as an event source;
- :mod:`.prof` — phase-attributed profiler over the span stream: call
  tree with self/total time, per-phase byte counts, straggler stats;
- :mod:`.causal` — trace contexts attached to every simnet message
  (``observe(causal=True)``), the causal DAG they form, the
  critical-path extractor over it, and the per-link table
  (``python -m repro explain``) reduced from it;
- :mod:`.flight` — a flight recorder that dumps the events leading up
  to safety violations and typed failures;
- :mod:`.scale` — process/simnet/obs resource accounting and the live
  per-phase resource profiler (``python -m repro prof --resources``).

An enabled pipeline runs one path: every event lands in one
:class:`~repro.obs.export.EventCollector`, whose list is the run's one
record — every artifact, metrics included, is a function of it — and
``causal=True`` gives every message a trace context.

``repro.obs.scenario`` (the ``python -m repro trace`` scenario) is
imported lazily, not here, because it depends on ``repro.core``.

See ``docs/observability.md`` for the event taxonomy and metric names.
"""

from .bus import Event, EventBus
from .causal import (
    CausalDag,
    CriticalPath,
    LinkRow,
    TraceContext,
    build_dag,
    critical_path,
    critical_paths_by_trace,
    link_table,
)
from .export import (
    EventCollector,
    read_events_jsonl,
    to_chrome_trace,
    to_prometheus,
    write_chrome_trace,
    write_events_jsonl,
)
from .flight import FlightRecorder
from .logging import ObsLogger, get_logger, set_level
from .prof import PhaseStats, ProfileReport, StragglerStats, profile_events
from .runtime import Observability, get, install, observe, uninstall
from .scale import (
    ResourceProfiler,
    format_resource_report,
    obs_self_accounting,
    resource_snapshot,
)
from .spans import NullSpan, Span

__all__ = [
    "CausalDag",
    "CriticalPath",
    "TraceContext",
    "ResourceProfiler",
    "format_resource_report",
    "obs_self_accounting",
    "resource_snapshot",
    "build_dag",
    "critical_path",
    "critical_paths_by_trace",
    "LinkRow",
    "link_table",
    "FlightRecorder",
    "PhaseStats",
    "ProfileReport",
    "StragglerStats",
    "profile_events",
    "Event",
    "EventBus",
    "EventCollector",
    "read_events_jsonl",
    "to_chrome_trace",
    "to_prometheus",
    "write_chrome_trace",
    "write_events_jsonl",
    "ObsLogger",
    "get_logger",
    "set_level",
    "Observability",
    "get",
    "install",
    "observe",
    "uninstall",
    "NullSpan",
    "Span",
]
