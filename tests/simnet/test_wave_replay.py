"""What one wave *firing* does: the run cut, the bulk run, the ledger.

``tests/simnet/test_waves.py`` and ``test_reliable_waves.py`` pin the
wave engine end to end (wave == per-item replay == actor).  The tests
here pin the pieces a firing is made of against their obvious
references — ``_cut`` against a linear scan of ``(time, seq)`` keys,
the item ledger's ``_bulk_run`` against replaying ``_apply_item`` item
by item in ``(time, batch, creation)`` order, and the merged replay of
several accounting batches against the per-item model
(``tests/simnet/per_item.py``) at every instant a foreign event can
observe — plus the ledger's lifecycle and a
same-process timing ratio showing that cuts inside a tie cost no more
than cuts between instants.
"""

import gc
import time
import weakref
from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chaos import (
    Crash,
    DelaySpike,
    FaultSchedule,
    LossWindow,
    Recover,
)
from repro.obs import runtime as _runtime
from repro.obs import to_prometheus
from repro.simnet import (
    FixedLatency,
    Network,
    Simulator,
    WaveRecord,
)
from repro.simnet import waves as W
from repro.simnet.reliable import ACK_BITS

from .latency import UniformLatency
from .per_item import REPLAYS


# ---------------------------------------------------------------- the cut
def _cut_reference(times, seqs, i, head):
    if head is None:
        return len(times)
    j = i
    while j < len(times) and (times[j], seqs[j]) < (head.time, head.seq):
        j += 1
    return j


@st.composite
def _cut_cases(draw):
    n = draw(st.integers(1, 40))
    # Few distinct instants: heavy ties.
    times = np.sort(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)))
    times = times.astype(np.float64)
    shape = draw(st.sampled_from(["item", "delivery", "ledger"]))
    if shape == "item":
        # ItemWave: one contiguous block in position order.
        seq0 = draw(st.integers(0, 50))
        seqs = seq0 + np.arange(n, dtype=np.int64)
    elif shape == "ledger":
        # Ledger: the batch column — it repeats, and only never
        # descends, within an equal-time run.
        batch = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        seqs = np.array(batch, dtype=np.int32)[np.lexsort((batch, times))]
    else:
        # DeliveryWave: ``seq0 + stable-argsort position`` — ascending
        # within an equal-time run, not across runs.
        seqs = np.empty(n, dtype=np.int64)
        seqs[np.argsort(draw(st.permutations(range(n))), kind="stable")] = \
            np.arange(n)
        order = np.lexsort((seqs, times))
        seqs = seqs[order] + draw(st.integers(0, 50))
    i = draw(st.integers(0, n - 1))
    if draw(st.integers(0, 9)) == 0:
        head = None
    else:
        # Times between, before and after the lattice points; seqs
        # before, inside and after the wave's block.
        head = SimpleNamespace(
            time=draw(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 2.5, 3.0,
                                       4.0, 5.0, 6.0])),
            seq=draw(st.integers(-1, 100)),
        )
    return times, seqs, i, head


@settings(max_examples=400, deadline=None)
@given(_cut_cases())
def test_cut_equals_linear_scan(case):
    times, seqs, i, head = case
    assert W._cut(times, seqs, i, head) == _cut_reference(times, seqs, i, head)


# ----------------------------------------------------------- the bulk run
_RELIABLE_TYPES = [
    W._T_RETRANS, W._T_LINKDOWN, W._T_LOST, W._T_DEPART, W._T_FRAME_MID,
    W._T_ARR_ACKUP, W._T_ARR_ACKLOST, W._T_ACK_MID, W._T_ACK_ARR,
    W._T_EXHAUST,
]
_PLAIN_TYPES = [
    W._T_LINKDOWN, W._T_LOST, W._T_DEPART, W._T_FRAME_MID, W._T_ARR_PLAIN,
]


def _random_batches(seed, reliable, sizes, n_instants, merged):
    """Accounting batches over random item mixes, on a fresh network.

    ``merged``: the batches sit in one merged ledger (fed their columns
    in creation order, as ``_send_batch_items`` does); otherwise each
    holds its own columns in replay order, for ``_apply_item``.
    """
    rng = np.random.default_rng(seed)
    m, n_nodes = 12, 6
    sim = Simulator()
    net = Network(
        sim, latency=FixedLatency(10.0), rng=np.random.default_rng(0),
        transport="reliable" if reliable else "fire_and_forget",
    )
    net.trace.keep_records = True
    ledger = W._ItemLedger(net)
    waves = []
    for w, n_items in enumerate(sizes):
        src = rng.integers(0, n_nodes, size=m)
        dst = (src + 1 + rng.integers(0, n_nodes - 1, size=m)) % n_nodes
        it_t = rng.integers(1, n_instants + 1, size=n_items) * 5.0
        it_type = rng.choice(
            _RELIABLE_TYPES if reliable else _PLAIN_TYPES, size=n_items
        ).astype(np.int8)
        it_idx = rng.integers(0, m, size=n_items).astype(np.int32)
        it_flag = np.isin(it_type, W._ARR_TYPES) & (rng.random(n_items) < 0.6)
        first_arr = np.where(rng.random(m) < 0.3, np.nan,
                             rng.integers(0, n_instants + 2, size=m) * 5.0)
        if not merged:
            order = np.argsort(it_t, kind="stable")
            it_t, it_type = it_t[order], it_type[order]
            it_idx, it_flag = it_idx[order], it_flag[order]
        wave = W.ItemWave(
            net, f"k{w}", 64.0, 128.0 + w, first_arr,
            ~np.isnan(first_arr), rng.integers(1, 9, size=m), src, dst,
            it_t, it_type, it_idx, it_flag,
        )
        waves.append(wave)
        if merged:
            ledger.add(wave, sim._queue.reserve(n_items))
    if merged:
        ledger._merge()
    return net, waves, ledger


def _state(net):
    rel = net.reliable
    trace = net.trace
    return (
        net.sim.now, net.in_flight, net.peak_in_flight,
        None if rel is None else (
            rel.retransmits, rel.acks_sent, rel.duplicates_suppressed,
            list(rel.exhausted), rel.exhausted_undelivered,
        ),
        trace.total_bits, trace.total_messages, trace.total_dropped,
        trace.by_kind(), dict(trace._msgs_by_kind),
        dict(trace._dropped_by_kind),
    )


#: what a bulk run publishes per batch, in its order: (types, ACK?,
#: delivered).  Mid-flight kills are silent in the trace; exhaustions
#: publish nothing.
_RECORDED = [
    ((W._T_LINKDOWN,), False, False),
    ((W._T_LOST,), False, False),
    (W._ARR_TYPES, False, True),
    ((W._T_ARR_ACKLOST,), True, False),
    ((W._T_ACK_ARR,), True, True),
]


def _expected_records(waves, run):
    """One ``WaveRecord`` per (batch, category) present among ``run``'s
    ``(batch, position)`` items, stamped with the category's last time."""
    out = []
    for w, wave in enumerate(waves):
        for typs, ack, delivered in _RECORDED:
            at = [p for b, p in run if b == w and wave._it_type[p] in typs]
            if at:
                kind, bits = (("net.ack", ACK_BITS) if ack
                              else (wave.kind, wave.frame_bits))
                out.append(WaveRecord(float(wave._it_t[at[-1]]), kind,
                                      len(at), len(at) * bits, delivered))
    return out


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    reliable=st.booleans(),
    sizes=st.lists(st.integers(1, 40), min_size=1, max_size=3),
    n_instants=st.integers(1, 4),
    mode=st.sampled_from(["plain", "obs"]),
    n_cuts=st.integers(0, 4),
)
def test_bulk_run_equals_item_replay(seed, reliable, sizes, n_instants,
                                     mode, n_cuts):
    """Runs over the merged items of up to three batches — one instant
    or several, with exhaustions, mid-flight kills and (timeline mode)
    plain arrivals — leave the network, the transport, the trace and the
    batches' ``done`` flags where item-by-item replay in ``(time, batch,
    creation)`` order leaves them; with obs on, the same metrics reduced
    from each side's events."""
    def replay(bulk):
        net, waves, ledger = _random_batches(seed, reliable, sizes,
                                             n_instants, merged=bulk)
        if bulk:
            _, ref, _ = _random_batches(seed, reliable, sizes, n_instants,
                                        merged=False)
        else:
            ref = waves
        # Each batch's columns are in replay order, so sorting on
        # (time, batch, position) is the per-item replay's global order.
        order = sorted((float(t), w, p) for w, wave in enumerate(ref)
                       for p, t in enumerate(wave._it_t))
        # A run ends between rows, (time, batch) groups: cut there.
        rows = np.flatnonzero([k == 0 or order[k][:2] != order[k - 1][:2]
                               for k in range(len(order))])
        if bulk:
            assert len(ledger._row_t) == len(rows)
        rows = [*rows.tolist(), len(order)]
        cuts = np.random.default_rng(seed + 1).integers(
            0, len(rows), size=n_cuts)
        bounds = sorted({0, len(rows) - 1, *map(int, cuts)})
        order = [(w, p) for _, w, p in order]
        states = []
        for a, b in zip(bounds, bounds[1:]):
            if bulk:
                net.trace.records.clear()
                ledger._bulk_run(a, b)
                assert net.trace.records == _expected_records(
                    ref, order[rows[a]:rows[b]])
            else:
                for w, p in order[rows[a]:rows[b]]:
                    waves[w]._apply_item(p)
            states.append((_state(net), [wave.done for wave in waves]))
        assert all(wave.done for wave in waves)
        return states

    if mode == "plain":
        assert replay(bulk=True) == replay(bulk=False)
        return
    with _runtime.observe() as obs_bulk:
        bulk = replay(bulk=True)
    with _runtime.observe() as obs_item:
        item = replay(bulk=False)
    assert bulk == item
    # A bulk run's events carry ``count``: their counters sum to the
    # per-item events' ones.
    assert to_prometheus(obs_bulk.events) == to_prometheus(obs_item.events)


# ---------------------------------------------------- ledger == per-item
_SCRIPT = FaultSchedule([
    LossWindow(15.0, 60.0, 0.4),
    DelaySpike(20.0, 90.0, 5.0),
    Crash(5.0, 3), Recover(70.0, 3),
    Crash(30.0, 5),
])
_LATENCIES = {
    "fixed": lambda: FixedLatency(10.0),
    "uniform": lambda: UniformLatency(4.0, 30.0),
    # A frame's departure, arrival and ACK share an instant.
    "zero": lambda: FixedLatency(0.0),
}

_batches = st.tuples(
    st.just("batch"), st.integers(1, 30), st.sampled_from("abcd"),
    # Departures: together now, staggered on the lattice, or anywhere.
    st.sampled_from([None, (0.0, 10.0, 20.0), (0.0, 3.5, 47.25)]),
)
_timers = st.tuples(
    st.just("timer"),
    # On the FixedLatency(10) / rto-40 lattice, and between its points.
    st.sampled_from([0.0, 10.0, 20.0, 40.0, 50.0, 60.0, 120.0,
                     7.5, 15.0, 33.0, 85.0]),
    st.sampled_from(["look", "chain", "send"]),
)


def _play(replay, reliable, timeline, lat, steps, seed):
    """Issue ``steps`` at t=0 on a fresh network and drain it, inside
    ``replay()`` (a :data:`REPLAYS` column).

    A timer *looks* (snapshots what an event can observe), *chains* (a
    zero-delay timer armed from a timer, looking again) or *sends* (a
    batch issued once replay may have begun).  Timers armed between two
    batches hold seqs between their blocks.
    """
    sim = Simulator()
    net = Network(
        sim, latency=_LATENCIES[lat](), rng=np.random.default_rng(seed),
        **(dict(loss_rate=0.25, transport="reliable",
                transport_opts={"base_rto_ms": 40.0, "max_attempts": 3})
           if reliable else {}),
    )
    if timeline:
        net.fault_timeline = _SCRIPT.timeline(net.loss_rate)
    keys, push = set(), sim._queue._push_event

    def spy(event):
        # Heap keys stay unique (cancelled entries hold theirs too).
        assert (event.time, event.seq) not in {
            entry[:2] for entry in sim._queue._heap}
        keys.add((event.time, event.seq))
        push(event)

    sim._queue._push_event = spy
    rng = np.random.default_rng(seed + 1)
    looks, waves = [], []

    def send(m, kind, offsets=None):
        src = rng.integers(0, 8, size=m)
        dst = (src + 1 + rng.integers(0, 7, size=m)) % 8
        at = None if offsets is None else sim.now + rng.choice(offsets, size=m)
        waves.append(net.send_batch(src, dst, size_bits=64.0, kind=kind,
                                    at_times=at))

    def look():
        looks.append((_state(net), [wave.done for wave in waves]))

    def fire(action):
        look()
        if action == "chain":
            sim.schedule(0.0, look)
        elif action == "send":
            send(5, "late")

    with replay():
        for step in steps:
            if step[0] == "batch":
                send(*step[1:])
            else:
                sim.schedule(step[1], lambda action=step[2]: fire(action))
        sim.run(max_events=100_000)
    look()
    assert all(wave.done for wave in waves) and net._ledger is None
    # Bytes, not lists: never-delivered slots are NaN.
    return keys, (looks, [(w.delivery_times.tobytes(), w.attempts.tolist())
                          for w in waves], sim.heap_stats()["scheduled_total"])


@settings(max_examples=150, deadline=None)
@given(
    mode=st.sampled_from([(True, False), (True, True), (False, True)]),
    lat=st.sampled_from(sorted(_LATENCIES)),
    steps=st.lists(st.one_of(_batches, _timers), min_size=1, max_size=8)
    .filter(lambda steps: 1 <= sum(s[0] == "batch" for s in steps) <= 4),
    seed=st.integers(0, 2**16),
)
# A foreign cut whose next item is the first of a batch that a late,
# earlier-due batch left its heap entry at.
@example(mode=(True, False), lat="fixed", seed=0,
         steps=[("timer", 10.0, "send"), ("timer", 33.0, "look"),
                ("batch", 1, "a", (0.0, 3.5, 47.25))])
# One batch, one instant, a -1 before a +1 in creation order: an epoch-1
# ACK arrives at 40 ms beside an epoch-2 retransmit departing at 40 ms.
# The peak is 1: a gauge that ran the +1 ahead of the -1 would read 2.
@example(mode=(True, False), lat="fixed", seed=15,
         steps=[("batch", 2, "a", (0.0, 10.0, 20.0))])
def test_merged_replay_equals_scalar_engine(mode, lat, steps, seed):
    """One to four overlapping accounting batches (reliable, reliable +
    fault script, script only) among foreign timers: at every instant an
    event can observe — each timer, each zero-delay timer a timer arms,
    the drained end — the merged replay has the clock, gauge, peak,
    trace totals by kind, transport counters and ``exhausted`` list of
    the per-item model, and unique heap keys that are item keys; under
    obs, the same metrics reduced from each side's events."""
    reliable, timeline = mode
    keys, got = {}, {}
    for side, replay in REPLAYS:
        with _runtime.observe() as obs:
            keys[side], got[side] = _play(replay, reliable, timeline, lat,
                                          steps, seed)
        got[side] += (to_prometheus(obs.events),)
    assert got["wave"] == got["per_item"]
    # The ledger only ever queues at keys the model gives items.
    assert keys["wave"] <= keys["per_item"]


def test_batch_issued_after_replay_began_opens_the_next_ledger():
    """A timer between two lattice instants issues a batch mid-replay:
    it cannot join the merged ledger, so it opens the network's next
    one, and the two cut each other as the per-item model orders them."""
    steps = [("batch", 30, "a", None), ("batch", 30, "b", (0.0, 10.0, 20.0)),
             ("timer", 15.0, "send"), ("timer", 60.0, "look")]
    got = {side: _play(replay, True, True, "fixed", steps, seed=5)[1]
           for side, replay in REPLAYS}
    assert got["wave"] == got["per_item"]
    sim = Simulator()
    net = Network(sim, latency=FixedLatency(10.0), transport="reliable",
                  rng=np.random.default_rng(0))
    ids = np.arange(4)
    first = net.send_batch(ids, ids + 1)
    pending = net._ledger
    assert pending.waves == [first] and not first.done
    opened = []

    def late():
        assert net._ledger is None and 0 < first._pos < first._n_items
        net.send_batch(ids, ids + 1)
        opened.append(net._ledger)

    sim.schedule(5.0, late)
    sim.run()
    assert opened[0] is not None and opened[0] is not pending
    assert first.done and opened[0].waves[0].done and net._ledger is None


def test_batch_due_before_the_pending_entry():
    """Batch ``b`` is issued after ``a`` and departs first: the ledger
    queues ``b``'s first key too and leaves ``a``'s entry where it is —
    the replay stops there (or at a foreign timer just before it, or at
    one tied with it between the two seq blocks) and resumes from it."""
    a, b = ("batch", 20, "a", (20.0,)), ("batch", 20, "b", (0.0,))
    for timers in ([], [("timer", 15.0, "look")], [("timer", 20.0, "chain")]):
        for mode in ((True, False), (False, True)):
            keys, got = {}, {}
            for side, replay in REPLAYS:
                keys[side], got[side] = _play(
                    replay, *mode, "fixed", [a, *timers, b], seed=2)
            assert got["wave"] == got["per_item"]
            assert keys["wave"] <= keys["per_item"]
    sim = Simulator()
    net = Network(sim, latency=FixedLatency(10.0), transport="reliable",
                  rng=np.random.default_rng(0))
    ids = np.arange(4)
    waves = [net.send_batch(ids, ids + 1, at_times=np.full(4, at))
             for at in (20.0, 0.0, 10.0)]
    assert sim.heap_stats()["entries"] == 2  # at 20 ms, then at 0 ms
    sim.run()
    assert all(wave.done for wave in waves)
    assert sim.heap_stats()["events_processed"] == 2


def test_batch_sent_after_a_bare_sim_clear_still_replays():
    """``Simulator.clear()`` takes the pending ledger's entry off the
    heap behind the network's back: the next batch opens a fresh one."""
    sim = Simulator()
    net = Network(sim, latency=FixedLatency(10.0), transport="reliable",
                  rng=np.random.default_rng(0))
    ids = np.arange(4)
    for delay in (30.0, 5.0):  # due after, then before, the cleared entry
        dropped = net.send_batch(ids, ids + 1,
                                 at_times=np.full(4, sim.now + 10.0))
        sim.clear()
        wave = net.send_batch(ids, ids + 1,
                              at_times=np.full(4, sim.now + delay))
        sim.run()
        assert wave.done and not dropped.done and net._ledger is None


def test_close_drops_a_pending_and_a_half_replayed_ledger():
    for run_to in (None, 12.0):
        sim = Simulator()
        net = Network(sim, latency=FixedLatency(10.0), transport="reliable",
                      rng=np.random.default_rng(0))
        ids = np.arange(4)
        wave = net.send_batch(ids, ids + 1)
        ledger = weakref.ref(net._ledger)
        if run_to is not None:
            sim.schedule(run_to, lambda: None)  # cuts the replay at 12 ms
            sim.run_until(run_to)
            assert 0 < wave._pos < wave._n_items
        net.close()
        assert net._ledger is None and ledger() is None and not wave.done


def test_drained_ledger_is_freed_without_the_cyclic_collector():
    """The network lets go of its ledger at the merge and nothing else
    holds it once drained, so refcounting frees its entries; each
    batch's creation-order items go at the merge, before any replays."""
    gc.collect()
    gc.disable()
    try:
        sim = Simulator()
        net = Network(sim, latency=FixedLatency(10.0), transport="reliable",
                      rng=np.random.default_rng(0), loss_rate=0.2)
        ids = np.arange(50)
        waves = [net.send_batch(ids, ids + 1, kind=k) for k in "ab"]
        ledger = net._ledger
        ledger._merge()  # what its first firing does
        assert all(w._it_t is None and not w.done for w in waves)
        ledger = weakref.ref(ledger)
        sim.run()
        assert ledger() is None and all(w.done for w in waves)
    finally:
        gc.enable()


# ------------------------------------------------------- the ratio guard
def _drain_seconds(offset_ms):
    """Best-of-three ``sim.run`` time for two ~50k-message reliable
    accounting batches on one network among 400 foreign timers, armed
    between the two batches' seq blocks, ``offset_ms`` off the lattice."""
    rng = np.random.default_rng(3)
    src = rng.integers(0, 1000, size=50_000)
    dst = (src + 1 + rng.integers(0, 999, size=50_000)) % 1000
    best, firings = float("inf"), None
    for _ in range(3):
        sim = Simulator()
        net = Network(
            sim, latency=FixedLatency(10.0), rng=np.random.default_rng(4),
            loss_rate=0.2, transport="reliable",
            transport_opts={"base_rto_ms": 40.0, "max_attempts": 12},
        )
        net.send_batch(src, dst, size_bits=64.0, kind="a")
        for step in range(1, 401):
            sim.schedule(10.0 * step + offset_ms, lambda: None)
        net.send_batch(src, dst, size_bits=64.0, kind="b")
        t0 = time.perf_counter()
        sim.run()
        best = min(best, time.perf_counter() - t0)
        firings = sim.heap_stats()["events_processed"]
    return best, firings, net.trace.total_messages


def test_tied_runs_cost_no_more_than_untied_runs():
    """Machine-independent guard on the ledger's cut: (A) timers on the
    lattice instants, seqs between the two batches' blocks, cut every
    tie window in the middle, (B) the same timers half a step late never
    tie — the same items and about the same firings either way, so the
    drains must cost about the same.  A cut that walks the tied items
    one by one makes A several times B.
    """
    tied, firings_a, msgs_a = _drain_seconds(0.0)
    apart, firings_b, msgs_b = _drain_seconds(5.0)
    assert msgs_a == msgs_b
    assert 0.5 < firings_a / firings_b < 2.0
    assert firings_a <= 2 * 400 + 2
    assert tied / apart < 2.0, (tied, apart)
