"""Unit tests for the event loop: ordering, cancellation, run helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.events import EventQueue, Simulator


class TestEventQueue:
    def test_pop_orders_by_time(self):
        q = EventQueue()
        fired = []
        q.push(5.0, lambda: fired.append(5))
        q.push(1.0, lambda: fired.append(1))
        q.push(3.0, lambda: fired.append(3))
        while (e := q.pop()) is not None:
            e.callback()
        assert fired == [1, 3, 5]

    def test_ties_broken_by_insertion_order(self):
        q = EventQueue()
        fired = []
        for i in range(10):
            q.push(7.0, lambda i=i: fired.append(i))
        while (e := q.pop()) is not None:
            e.callback()
        assert fired == list(range(10))

    def test_cancelled_events_skipped(self):
        q = EventQueue()
        e1 = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        e1.cancelled = True
        popped = q.pop()
        assert popped is not None and popped.time == 2.0

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        e1 = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        e1.cancelled = True
        assert q.peek_time() == 2.0

    def test_len_counts_live_events(self):
        q = EventQueue()
        e1 = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        assert len(q) == 2
        e1.cancelled = True
        assert len(q) == 1

    def test_empty_queue(self):
        q = EventQueue()
        assert q.pop() is None
        assert q.peek_time() is None
        assert not q


class TestSimulator:
    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        times = []
        sim.schedule(10.0, lambda: times.append(sim.now))
        sim.schedule(20.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [10.0, 20.0]
        assert sim.now == 20.0

    def test_negative_delay_clamped(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        fired = []
        sim.schedule(-3.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(42.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [42.0]

    def test_cancel_prevents_firing(self):
        sim = Simulator()
        fired = []
        h = sim.schedule(1.0, lambda: fired.append(1))
        h.cancel()
        sim.run()
        assert fired == []
        assert h.cancelled

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(5.0, lambda: fired.append(("inner", sim.now)))

        sim.schedule(10.0, outer)
        sim.run()
        assert fired == [("outer", 10.0), ("inner", 15.0)]

    def test_run_until_stops_at_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, lambda: fired.append(10))
        sim.schedule(30.0, lambda: fired.append(30))
        sim.run_until(20.0)
        assert fired == [10]
        assert sim.now == 20.0
        sim.run()
        assert fired == [10, 30]

    def test_run_until_event_exactly_at_boundary_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(20.0, lambda: fired.append(20))
        sim.run_until(20.0)
        assert fired == [20]

    def test_run_while_predicate(self):
        sim = Simulator()
        counter = []
        for i in range(100):
            sim.schedule(float(i), lambda: counter.append(1))
        done = sim.run_while(lambda: len(counter) < 5)
        assert done
        assert len(counter) == 5

    def test_run_while_queue_drains(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        done = sim.run_while(lambda: True)
        assert not done

    def test_livelock_guard(self):
        sim = Simulator()

        def rearm():
            sim.schedule(0.0, rearm)

        sim.schedule(0.0, rearm)
        with pytest.raises(RuntimeError, match="livelock"):
            sim.run(max_events=1000)

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(7):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 7


class _QueueModel:
    """List-based model of :class:`EventQueue`, lazy cancellation included.

    ``heap`` holds the entries still occupying a heap slot as mutable
    ``[time, seq, cancelled]`` records; everything the queue reports —
    pop order, ``len``, ``peek_time``, ``heap_stats`` — follows from it.
    """

    def __init__(self):
        self.heap, self.seq, self.peak, self.compactions = [], 0, 0, 0

    def live(self):
        return [e for e in self.heap if not e[2]]

    def push(self, time, seq):
        entry = [time, seq, False]
        self.heap.append(entry)
        self.peak = max(self.peak, len(self.heap))
        return entry

    def set_cancelled(self, entry, value):
        in_heap = any(e is entry for e in self.heap)
        changed, entry[2] = entry[2] != value, value
        if changed and value and in_heap and len(self.heap) >= 64:
            live = len(self.live())
            if len(self.heap) - live > live:
                self.heap = self.live()
                self.compactions += 1

    def _shed_cancelled_head(self):
        self.heap.sort(key=lambda e: (e[0], e[1]))
        while self.heap and self.heap[0][2]:
            self.heap.pop(0)

    def pop(self):
        self._shed_cancelled_head()
        return self.heap.pop(0) if self.heap else None

    def peek_time(self):
        self._shed_cancelled_head()
        return self.heap[0][0] if self.heap else None

    def stats(self):
        live = len(self.live())
        return {
            "entries": len(self.heap), "live": live,
            "dead": len(self.heap) - live, "scheduled_total": self.seq,
            "peak_pending": self.peak, "compactions": self.compactions,
        }


class TestEventQueueAgainstModel:
    OPS = st.lists(
        st.tuples(
            st.sampled_from(
                ["push"] * 4 + ["block", "burst"] + ["cancel"] * 4
                + ["purge", "uncancel", "pop", "pop", "peek"]
            ),
            # few distinct times: ties are broken by seq all the time
            st.integers(0, 6),
            st.integers(0, 10_000),
        ),
        min_size=30, max_size=120,
    )

    @given(ops=OPS)
    @settings(max_examples=150, deadline=None)
    def test_random_interleavings_match_the_model(self, ops):
        queue, model = EventQueue(), _QueueModel()
        pairs = []  # (Event, model entry), in creation order

        def push(time, seq=None):
            if seq is None:
                event = queue.push(time, lambda: None)
                model.seq += 1
            else:
                event = queue.push_at(time, seq, lambda: None)
            pairs.append((event, model.push(time, event.seq)))

        for op, time, pick in ops:
            if op == "push":
                push(float(time))
            elif op == "block":
                # reserve a block, push it out of order and tied in time
                first = queue.reserve(3)
                model.seq += 3
                assert first == model.seq - 3
                for offset in (2, 0, 1):
                    push(float(time), first + offset)
            elif op == "burst":
                for i in range(40):
                    push(float((time + i) % 7))
            elif op in ("cancel", "uncancel") and pairs:
                event, entry = pairs[pick % len(pairs)]
                event.cancelled = op == "cancel"
                model.set_cancelled(entry, op == "cancel")
            elif op == "purge":
                # cancel three in four: what tips the heap into compaction
                for i, (event, entry) in enumerate(pairs):
                    if i % 4 != pick % 4:
                        event.cancelled = True
                        model.set_cancelled(entry, True)
            elif op == "pop":
                event, entry = queue.pop(), model.pop()
                if entry is None:
                    assert event is None
                else:
                    assert (event.time, event.seq) == (entry[0], entry[1])
            elif op == "peek":
                assert queue.peek_time() == model.peek_time()
            assert len(queue) == len(model.live())
            assert queue.heap_stats() == model.stats()

        drained = []
        while (event := queue.pop()) is not None:
            drained.append((event.time, event.seq))
        assert drained == sorted((e[0], e[1]) for e in model.live())
        assert len(queue) == 0 and not queue

    def test_mass_cancellation_compacts_and_keeps_order(self):
        queue = EventQueue()
        events = [queue.push(float(i % 5), lambda: None) for i in range(200)]
        for event in events[::4] + events[1::4] + events[2::4]:
            event.cancelled = True
        assert queue.compactions >= 1
        assert queue.heap_stats()["entries"] < 200
        kept = [(e.time, e.seq) for e in events[3::4]]
        popped = []
        while (event := queue.pop()) is not None:
            popped.append((event.time, event.seq))
        assert popped == sorted(kept)

    def test_leaving_the_heap_releases_the_callback(self):
        # fired, skipped-as-cancelled and cleared events all let go of
        # their callback (a node timer's closes over its own handle).
        sim = Simulator()
        fired = sim.schedule(1.0, lambda: None)
        skipped = sim.schedule(2.0, lambda: None)
        skipped.cancel()
        sim.schedule(3.0, lambda: None)
        pending = sim.schedule(9.0, lambda: None)
        sim.run_until(5.0)
        assert fired._event.callback is None
        assert skipped._event.callback is None
        assert pending._event.callback is not None
        sim.clear()
        assert pending._event.callback is None
        assert sim.heap_stats()["entries"] == 0 and not sim.step()
