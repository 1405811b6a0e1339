"""Span timers for phase profiling.

A span measures one named phase — a wire round, a SAC share exchange, a
share reconstruction — and on exit emits a single span event: the
Chrome trace exporter renders it as a duration slice, and
:func:`~repro.obs.export.to_prometheus` reduces it into the
``span_duration_ms`` summary, labeled by span name.

Spans carry two clocks: the wall clock always, and the virtual
simulation clock when the caller supplies one (``clock=lambda: sim.now``).
When a virtual clock is present, ``dur_ms`` is *simulated* time — the
quantity the paper's latency figures are about; the wall-clock duration
rides along in the ``wall_ms`` field.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional


class Span:
    """Context manager timing one phase; emitted on exit."""

    __slots__ = ("_obs", "name", "node", "clock", "fields",
                 "_t0_ms", "_wall0", "t_ms", "dur_ms")

    def __init__(
        self,
        obs: Any,
        name: str,
        clock: Optional[Callable[[], float]] = None,
        node: int | None = None,
        **fields: Any,
    ) -> None:
        self._obs = obs
        self.name = name
        self.node = node
        self.clock = clock
        self.fields = fields
        self._t0_ms: float | None = None
        self._wall0 = 0.0
        self.t_ms: float | None = None
        self.dur_ms: float | None = None

    def __enter__(self) -> "Span":
        self._wall0 = time.perf_counter()
        if self.clock is not None:
            self._t0_ms = float(self.clock())
        return self

    def annotate(self, **fields: Any) -> None:
        """Attach extra fields discovered mid-phase."""
        self.fields.update(fields)

    def __exit__(self, exc_type, exc, tb) -> None:
        wall_ms = (time.perf_counter() - self._wall0) * 1e3
        if self._t0_ms is not None:
            self.t_ms = self._t0_ms
            self.dur_ms = float(self.clock()) - self._t0_ms
            self.fields.setdefault("wall_ms", wall_ms)
        else:
            self.t_ms = None
            self.dur_ms = wall_ms
        if exc_type is not None:
            self.fields["error"] = exc_type.__name__
        self._obs.emit(
            self.name,
            t_ms=self.t_ms,
            node=self.node,
            dur_ms=self.dur_ms,
            **self.fields,
        )


class NullSpan:
    """Do-nothing span returned when observability is disabled."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def annotate(self, **fields: Any) -> None:
        pass

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = NullSpan()
