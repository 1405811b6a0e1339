"""Virtual clock and cancellable event heap.

The simulator is a plain binary-heap event loop: heap entries are
``(time, seq, event)`` tuples, with ``seq`` (a monotonically increasing
counter) breaking ties deterministically.  ``seq`` is unique, so
``heapq`` orders entries by comparing two floats and two ints in C and
never reaches the :class:`Event` behind them.  Cancellation is lazy — a
cancelled event stays in the heap and is skipped when popped — which
keeps ``cancel`` O(1) and matches how election timers are constantly
reset in Raft.

Two additions serve scale:

- the queue keeps an **incremental live counter** (``len()`` is O(1), not
  a heap scan) and **compacts** the heap — filter + heapify — whenever
  lazily-cancelled entries outnumber live ones, so a Raft node resetting
  its election timer millions of times cannot grow the heap unboundedly;
- ``reserve(count)`` + ``push_at`` hand out contiguous sequence-number
  blocks so the delivery-wave engine (:mod:`repro.simnet.waves`) can
  schedule one heap entry per *wave* of messages while preserving the
  exact per-message ``(time, seq)`` total order of scalar sends.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

#: Below this raw heap size, compaction is never worth the heapify.
_COMPACT_MIN_HEAP = 64


class Event:
    """A scheduled callback; its queue orders it by ``(time, seq)``.

    ``cancelled`` is a property so that flipping it (from a
    :class:`TimerHandle` or directly, as some callers do) keeps the
    owning queue's live counter exact.
    """

    __slots__ = ("time", "seq", "callback", "_cancelled", "_queue")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], None],
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self._cancelled = cancelled
        self._queue: Optional["EventQueue"] = None

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @cancelled.setter
    def cancelled(self, value: bool) -> None:
        value = bool(value)
        if value == self._cancelled:
            return
        self._cancelled = value
        queue = self._queue
        if queue is not None:
            # Still sitting in a heap: keep its live count exact (and
            # give it a chance to compact away the dead weight).
            queue._on_cancel_toggled(cancelled=value)

    def _release(self) -> None:
        """Leave the heap for good without firing: drop the callback.

        A node timer's callback closes over its own handle (and the
        node), so an event that kept it would keep that cycle alive for
        the cyclic collector; without it refcounting frees the lot.
        """
        self._queue = None
        self.callback = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = " cancelled" if self._cancelled else ""
        return f"Event(t={self.time}, seq={self.seq}{flag})"


class TimerHandle:
    """Handle returned by :meth:`Simulator.schedule`; supports cancellation."""

    __slots__ = ("_event",)

    def __init__(self, event: Event) -> None:
        self._event = event

    def cancel(self) -> None:
        """Cancel the event.  Safe to call more than once or after firing."""
        self._event.cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    @property
    def when(self) -> float:
        """Absolute virtual time at which the event fires."""
        return self._event.time


class EventQueue:
    """Min-heap of ``(time, seq, event)`` entries, one per :class:`Event`."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._live = 0
        #: high-water mark of heap entries (cancelled included — that is
        #: the honest memory occupancy of the lazy-cancellation design).
        self.peak_pending = 0
        #: times the heap was rebuilt to shed lazily-cancelled entries.
        self.compactions = 0

    def reserve(self, count: int) -> int:
        """Reserve ``count`` contiguous sequence numbers; return the first.

        The delivery-wave engine assigns one reserved seq per message so
        that a whole wave, delivered from a single heap entry, keeps the
        exact ``(time, seq)`` order per-message sends would have had.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        first = self._seq
        self._seq += count
        return first

    def push(self, time: float, callback: Callable[[], None]) -> Event:
        event = Event(time=time, seq=self._seq, callback=callback)
        self._seq += 1
        self._push_event(event)
        return event

    def push_at(self, time: float, seq: int, callback: Callable[[], None]) -> Event:
        """Push an event with an explicit (previously reserved) seq."""
        if seq >= self._seq:
            raise ValueError(f"seq {seq} was never reserved")
        event = Event(time=time, seq=seq, callback=callback)
        self._push_event(event)
        return event

    def _push_event(self, event: Event) -> None:
        event._queue = self
        heapq.heappush(self._heap, (event.time, event.seq, event))
        self._live += 1
        if len(self._heap) > self.peak_pending:
            self.peak_pending = len(self._heap)

    def _on_cancel_toggled(self, cancelled: bool) -> None:
        if cancelled:
            self._live -= 1
            self._maybe_compact()
        else:
            self._live += 1

    def _maybe_compact(self) -> None:
        """Rebuild the heap once cancelled entries outnumber live ones."""
        if len(self._heap) < _COMPACT_MIN_HEAP:
            return
        if len(self._heap) - self._live <= self._live:
            return
        live = []
        for entry in self._heap:
            if entry[2]._cancelled:
                entry[2]._release()
            else:
                live.append(entry)
        self._heap = live
        heapq.heapify(live)
        self.compactions += 1

    def pop(self) -> Optional[Event]:
        """Pop the next non-cancelled event, or ``None`` if the heap is empty."""
        while self._heap:
            event = heapq.heappop(self._heap)[2]
            if not event._cancelled:
                event._queue = None
                self._live -= 1
                return event
            event._release()
        return None

    def clear(self) -> None:
        """Discard every pending event (counters and seq are kept)."""
        for entry in self._heap:
            entry[2]._release()
        self._heap = []
        self._live = 0

    def peek_event(self) -> Optional[Event]:
        """The next live event without popping it (``None`` when empty)."""
        while self._heap and self._heap[0][2]._cancelled:
            heapq.heappop(self._heap)[2]._release()
        return self._heap[0][2] if self._heap else None

    def peek_time(self) -> Optional[float]:
        """Time of the next live event without popping it."""
        event = self.peek_event()
        return event.time if event is not None else None

    def heap_stats(self) -> dict:
        """Occupancy counters for the raw heap.

        ``entries`` counts raw heap slots (cancelled included — the honest
        memory occupancy of lazy cancellation), ``dead`` the cancelled
        entries still holding slots, ``compactions`` the rebuilds that
        shed them.  Surfaced by the ``xlayer`` and ``chaos`` CLIs so
        wave-vs-scalar heap pressure is visible without a profiler.
        """
        entries = len(self._heap)
        return {
            "entries": entries,
            "live": self._live,
            "dead": entries - self._live,
            "scheduled_total": self._seq,
            "peak_pending": self.peak_pending,
            "compactions": self.compactions,
        }

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self.peek_time() is not None


class Simulator:
    """Discrete-event simulator with a virtual millisecond clock.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(10.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [10.0]
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._running = False
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now

    def heap_stats(self) -> dict:
        """Occupancy of the event heap — fed to the resource profiler.

        ``pending`` counts raw heap entries (cancelled included, since
        they hold memory until popped or compacted away); ``live`` is
        the O(1) non-cancelled count; ``peak_pending`` is the high-water
        mark over the simulation so far; ``compactions`` counts heap
        rebuilds that shed lazily-cancelled entries.
        """
        stats = self._queue.heap_stats()
        stats["pending"] = stats["entries"]  # legacy alias
        stats["events_processed"] = self.events_processed
        return stats

    def clear(self) -> None:
        """Discard every pending event (end of a run; stats stay readable)."""
        self._queue.clear()

    def schedule(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        """Schedule ``callback`` to run ``delay`` ms from now.

        Negative delays are clamped to zero (fire "immediately", after any
        events already due at the current time).
        """
        if delay < 0:
            delay = 0.0
        event = self._queue.push(self._now + delay, callback)
        return TimerHandle(event)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> TimerHandle:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        return self.schedule(time - self._now, callback)

    def advance_to(self, time: float) -> None:
        """Advance the clock inside a handler (delivery-wave engine only).

        A wave event delivers a *run* of messages with increasing
        timestamps from one callback; each sub-delivery moves the clock
        so observers see the same ``now`` as per-message scheduling.
        Never moves the clock backwards.
        """
        if time > self._now:
            self._now = time

    def step(self) -> bool:
        """Run a single event.  Returns ``False`` when the queue is empty."""
        event = self._queue.pop()
        if event is None:
            return False
        assert event.time >= self._now, "time ran backwards"
        self._now = event.time
        self.events_processed += 1
        # A fired event keeps nothing alive (see ``Event._release``).
        callback, event.callback = event.callback, None
        callback()
        return True

    def run(self, max_events: int = 10_000_000) -> None:
        """Run until the event queue drains (or ``max_events`` is hit)."""
        for _ in range(max_events):
            if not self.step():
                return
        raise RuntimeError(
            f"simulation exceeded {max_events} events; likely a livelock"
        )

    def run_until(self, time: float, max_events: int = 10_000_000) -> None:
        """Run all events with timestamps ``<= time``; advance the clock to ``time``."""
        for _ in range(max_events):
            next_time = self._queue.peek_time()
            if next_time is None or next_time > time:
                break
            self.step()
        else:
            raise RuntimeError(
                f"simulation exceeded {max_events} events; likely a livelock"
            )
        if time > self._now:
            self._now = time

    def run_while(
        self, predicate: Callable[[], bool], max_events: int = 10_000_000
    ) -> bool:
        """Run while ``predicate()`` is true.

        Returns ``True`` if the predicate became false, ``False`` if the
        queue drained first.
        """
        for _ in range(max_events):
            if not predicate():
                return True
            if not self.step():
                return False
        raise RuntimeError(
            f"simulation exceeded {max_events} events; likely a livelock"
        )
