"""`FaultTimeline`: the compiled, vectorized view of a FaultSchedule.

Two layers of contract:

- **query semantics** — every piecewise state function (loss edges,
  crash intervals, partition groups, delay spikes) has closed-start /
  open-end windows;
- **engine equivalence** — under ``FixedLatency`` (no per-draw RNG) the
  per-message actor loop under the armed schedule, the timeline-driven
  item wave and the per-item replay of the same items
  (``tests/simnet/per_item.py``) read one timeline and produce
  bit-identical delivery order, finish time, transport counters and
  trace records for generated crash-free scripts; under crashes the
  wave equals the per-item replay.
"""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import (
    Crash,
    DelaySpike,
    FaultSchedule,
    LossWindow,
    PartitionWindow,
    Recover,
)
from repro.simnet import FixedLatency, Network, Simulator, TraceRecorder
from tests.simnet.per_item import REPLAYS, actor_arrivals

#: NaN (never arrived) and ``inf`` (never landed) are sentinels here: an
#: arithmetic warning on them is a bug, not noise.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _ids(*xs):
    return np.asarray(xs, dtype=np.int64)


def _ts(*xs):
    return np.asarray(xs, dtype=np.float64)


class TestLossEdges:
    def test_base_rate_outside_windows_and_override_inside(self):
        tl = FaultSchedule([LossWindow(50.0, 250.0, 0.35)]).timeline(
            base_loss_rate=0.1
        )
        got = tl.loss_rate_at(_ts(0.0, 49.9, 50.0, 249.9, 250.0, 1e6))
        np.testing.assert_array_equal(
            got, [0.1, 0.1, 0.35, 0.35, 0.1, 0.1]
        )
        assert tl.max_loss_rate == 0.35

    def test_window_overrides_not_adds(self):
        tl = FaultSchedule([LossWindow(0.0, 10.0, 0.05)]).timeline(
            base_loss_rate=0.2
        )
        # The window's rate replaces the base; it can *lower* it.
        assert tl.loss_rate_at(_ts(5.0))[0] == 0.05
        assert tl.max_loss_rate == 0.2

    def test_empty_schedule_is_flat_base(self):
        tl = FaultSchedule([]).timeline(base_loss_rate=0.15)
        np.testing.assert_array_equal(
            tl.loss_rate_at(_ts(0.0, 1e9)), [0.15, 0.15]
        )


class TestCrashIntervals:
    def test_crash_recover_is_half_open(self):
        tl = FaultSchedule([Crash(50.0, 3), Recover(400.0, 3)]).timeline()
        nodes = _ids(3, 3, 3, 3, 3)
        times = _ts(49.9, 50.0, 399.9, 400.0, 500.0)
        np.testing.assert_array_equal(
            tl.crashed_at(nodes, times),
            [False, True, True, False, False],
        )

    def test_crash_without_recover_is_forever(self):
        tl = FaultSchedule([Crash(80.0, 7)]).timeline()
        np.testing.assert_array_equal(
            tl.crashed_at(_ids(7, 7, 5), _ts(80.0, 1e12, 1e12)),
            [True, True, False],
        )

    def test_recovery_oracle(self):
        tl = FaultSchedule(
            [Crash(50.0, 3), Recover(400.0, 3), Crash(80.0, 7)]
        ).timeline()
        # may_recover: a Recover exists at t >= query time.
        np.testing.assert_array_equal(
            tl.recovery_at_or_after(_ids(3, 3, 7), _ts(100.0, 400.1, 100.0)),
            [True, False, False],
        )


class TestPartitionsAndSpikes:
    def test_partition_blocks_cross_group_and_outsiders(self):
        tl = FaultSchedule(
            [PartitionWindow(100.0, 200.0, ((0, 1), (2, 3)))]
        ).timeline()
        src = _ids(0, 0, 2, 0, 4, 0)
        dst = _ids(1, 2, 3, 1, 0, 2)
        t = _ts(150.0, 150.0, 150.0, 99.0, 150.0, 200.0)
        np.testing.assert_array_equal(
            tl.link_up_at(src, dst, t),
            # same-group up; cross-group down; outside-every-group node
            # 4 is isolated, talking to nobody; window is
            # [100, 200) so t=99 and t=200 are unaffected.
            [True, False, True, True, False, True],
        )

    def test_crashed_endpoint_downs_the_link(self):
        tl = FaultSchedule([Crash(10.0, 1)]).timeline()
        np.testing.assert_array_equal(
            tl.link_up_at(_ids(0, 1, 0), _ids(1, 0, 2), _ts(20.0, 20.0, 20.0)),
            [False, False, True],
        )

    def test_overlapping_spikes_sum(self):
        tl = FaultSchedule([
            DelaySpike(100.0, 300.0, 10.0),
            DelaySpike(150.0, 300.0, 25.0, nodes=(5, 6)),
        ]).timeline()
        src = _ids(5, 1, 5, 5)
        dst = _ids(2, 2, 2, 2)
        t = _ts(200.0, 200.0, 120.0, 300.0)
        np.testing.assert_array_equal(
            tl.extra_delay_at(src, dst, t),
            # both spikes; global only; node spike not yet open; both
            # windows closed at t_end.
            [35.0, 10.0, 10.0, 0.0],
        )

    def test_spike_hits_either_endpoint(self):
        tl = FaultSchedule(
            [DelaySpike(0.0, 100.0, 7.0, nodes=(5,))]
        ).timeline()
        np.testing.assert_array_equal(
            tl.extra_delay_at(_ids(5, 2, 2), _ids(1, 5, 3), _ts(1.0, 1.0, 1.0)),
            [7.0, 7.0, 0.0],
        )


# -------------------------------------------------------------- fault reach

@st.composite
def _scripts(draw):
    """Crashes with and without a ``Recover`` on nodes 0..11, sometimes
    a partition; times chosen so RTO holds both end and are abandoned."""
    events = []
    for node in draw(st.sets(st.integers(0, 11), max_size=4)):
        t = draw(st.sampled_from([0.0, 5.0, 45.0, 130.0]))
        events.append(Crash(t, node))
        if draw(st.booleans()):
            events.append(Recover(t + draw(st.sampled_from([20.0, 150.0,
                                                           2000.0])), node))
    if draw(st.booleans()):
        cut = draw(st.integers(1, 10))
        events.append(PartitionWindow(
            40.0, draw(st.sampled_from([90.0, 400.0])),
            (tuple(range(cut)), tuple(range(cut, 11))),  # 11: an outsider
        ))
    return FaultSchedule(events)


#: crash and recover instants: on and between the other scripts' edges.
_CRASH_TIMES = (0.0, 5.0, 10.0, 45.0, 90.0, 130.0, 400.0, 2000.0)


@st.composite
def _crash_scripts(draw):
    """Crash / recover alternations on nodes 0..11: up to three crash
    intervals per node, the last one open or closed."""
    events = []
    for node in draw(st.sets(st.integers(0, 11), max_size=5)):
        times = sorted(draw(st.sets(st.sampled_from(_CRASH_TIMES),
                                    min_size=1, max_size=6)))
        events += [(Crash if k % 2 == 0 else Recover)(t, node)
                   for k, t in enumerate(times)]
    return FaultSchedule(events)


def _crash_loops(schedule):
    """``crashed_at`` and ``recovery_at_or_after`` as one ``nodes ==
    node`` pass per scripted node: the reference the timeline's one
    lookup per id must equal."""
    open_at, intervals, recoveries = {}, {}, {}
    for event in schedule.events:
        if isinstance(event, Crash):
            open_at[event.node] = event.t_ms
        elif isinstance(event, Recover):
            intervals.setdefault(event.node, []).append(
                (open_at.pop(event.node), event.t_ms))
            recoveries.setdefault(event.node, []).append(event.t_ms)
    for node, start in open_at.items():
        intervals.setdefault(node, []).append((start, np.inf))

    def crashed_at(nodes, times):
        out = np.zeros(len(nodes), dtype=bool)
        for node, spans in intervals.items():
            sel = nodes == node
            t = times[sel]
            hit = np.zeros(len(t), dtype=bool)
            for s, e in spans:
                hit |= (t >= s) & (t < e)
            out[sel] = hit
        return out

    def recovery_at_or_after(nodes, times):
        out = np.zeros(len(nodes), dtype=bool)
        for node, recs in recoveries.items():
            sel = nodes == node
            out[sel] = times[sel] <= max(recs)
        return out

    return crashed_at, recovery_at_or_after


class TestQueriesEqualTheirLoops:
    @given(_crash_scripts(), st.integers(0, 2**16))
    @settings(max_examples=200, deadline=None)
    def test_crash_lookups_equal_per_node_passes(self, schedule, seed):
        tl = schedule.timeline()
        crashed_at, recovery_at_or_after = _crash_loops(schedule)
        rng = np.random.default_rng(seed)
        nodes = rng.integers(-1, 14, size=300)
        times = rng.choice([*_CRASH_TIMES, 4.9, 44.9, 129.9, 1e9, np.inf,
                            np.nan], size=300)
        np.testing.assert_array_equal(tl.crashed_at(nodes, times),
                                      crashed_at(nodes, times))
        np.testing.assert_array_equal(tl.recovery_at_or_after(nodes, times),
                                      recovery_at_or_after(nodes, times))


class TestFaultReach:
    """``can_go_down`` bounds what ``send_batch`` asks the script about:
    wrong, it would silently keep a dead link up."""

    @given(_scripts(), st.integers(0, 2**16))
    @settings(max_examples=100, deadline=None)
    def test_unreached_nodes_are_never_down(self, schedule, seed):
        tl = schedule.timeline()
        rng = np.random.default_rng(seed)
        src, dst = rng.integers(0, 14, size=(2, 300))
        t = rng.choice([0.0, 5.0, 44.9, 45.0, 89.9, 90.0, 130.0, 500.0, 1e4],
                       size=300)
        safe = ~tl.can_go_down(src)
        assert not tl.crashed_at(src, t)[safe].any()
        assert tl.link_up_at(src, dst, t)[safe & ~tl.can_go_down(dst)].all()
        if any(isinstance(e, PartitionWindow) for e in schedule.events):
            assert tl.can_go_down(src).all()  # outsiders are isolated
        else:
            np.testing.assert_array_equal(
                tl.can_go_down(src),
                [n in {c.node for c in schedule.crashes()} for n in src],
            )

    @given(_scripts(), st.integers(0, 2**16), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_asking_about_reached_links_only_changes_nothing(
            self, schedule, seed, reliable):
        """The batch that asks ``link_up_at`` / ``_apply_holds`` about
        reachable messages only == the one that asks about them all."""
        rng = np.random.default_rng(seed)
        src = rng.integers(0, 12, size=80)
        dst = (src + 1 + rng.integers(0, 11, size=80)) % 12
        got = []
        for everything in (False, True):
            sim = Simulator()
            net = Network(
                sim, latency=FixedLatency(10.0),
                rng=np.random.default_rng(seed),
                **(dict(loss_rate=0.3, transport="reliable",
                        transport_opts={"base_rto_ms": 40.0,
                                        "max_attempts": 4})
                   if reliable else {}),
            )
            tl = net.fault_timeline = schedule.timeline(net.loss_rate)
            if everything:
                tl.can_go_down = lambda nodes: np.ones(len(nodes), dtype=bool)
            wave = net.send_batch(src, dst, size_bits=64.0, kind="x")
            sim.run()
            rel = net.reliable
            got.append((
                wave.delivery_times.tobytes(), wave.attempts.tolist(),
                sim.now, sim.heap_stats()["scheduled_total"],
                net.trace.total_bits, net.trace.total_messages,
                net.trace.total_dropped, net.peak_in_flight,
                rel and (rel.retransmits, rel.acks_sent,
                         rel.duplicates_suppressed, list(rel.exhausted)),
            ))
        assert got[0] == got[1]


# ------------------------------------------------------------------ engines

SCHEDULE = FaultSchedule([
    Crash(50.0, 3),
    Recover(400.0, 3),
    Crash(80.0, 7),  # permanent
    PartitionWindow(100.0, 200.0, (tuple(range(0, 6)), tuple(range(6, 12)))),
    DelaySpike(150.0, 300.0, 25.0, nodes=(5, 6)),
])

class Stub:
    def __init__(self, node_id, sim):
        self.node_id = node_id
        self.sim = sim
        self.received = []

    def deliver(self, src, msg):
        self.received.append((self.sim.now, src, msg))


def _faulty_net(schedule):
    sim = Simulator()
    net = Network(
        sim, latency=FixedLatency(10.0), rng=np.random.default_rng(17),
        loss_rate=0.2, transport="reliable",
        transport_opts={"base_rto_ms": 60.0, "max_attempts": 5},
    )
    nodes = [Stub(i, sim) for i in range(12)]
    for nd in nodes:
        net.register(nd)
    if schedule is not None:
        net.fault_timeline = schedule.timeline(net.loss_rate)
    return sim, net, nodes


def _workload():
    m = 120
    rng = np.random.default_rng(23)
    src = rng.integers(0, 12, size=m)
    dst = (src + 1 + rng.integers(0, 11, size=m)) % 12
    return src, dst


def _fingerprint(sim, net):
    rel = net.reliable
    return (
        sim.now, rel.retransmits, rel.acks_sent, rel.duplicates_suppressed,
        len(rel.exhausted), rel.exhausted_undelivered,
        net.trace.total_bits, net.trace.total_messages,
        net.trace.total_dropped,
    )


def test_engines_bitwise_identical_under_crash_schedule():
    """Crashes + partition + spike: the wave and the per-item model replay
    the same precomputed items, so every observable agrees bit for bit
    (the actor loop is *not* comparable here — see ``_hold_free``)."""
    src, dst = _workload()
    results, times = {}, {}
    for side, replay in REPLAYS:
        with replay():
            sim, net, _ = _faulty_net(SCHEDULE)
            wave = net.send_batch(src, dst, size_bits=64.0, kind="x")
            sim.run()
        times[side] = wave.delivery_times
        results[side] = (wave.attempts.tolist(), _fingerprint(sim, net))
    np.testing.assert_array_equal(times["wave"], times["per_item"])
    assert results["wave"] == results["per_item"]
    # The schedule actually bit.
    fingerprint = results["wave"][1]
    assert fingerprint[1] > 0  # retransmits
    assert fingerprint[4] > 0  # exhausted (node 7 never comes back)


#: Window edges: the epoch instants (0, 40, 120, 280, 600 at RTO 40,
#: backoff 2), the arrivals 10 ms after them and points in between, so
#: edges land on sends, arrivals and ACKs (closed start, open end).
_EDGES = (0.0, 5.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 120.0, 130.0,
          200.0, 280.0, 290.0, 600.0, 610.0)
#: Spike delays: a frame still lands before the next RTO, while a
#: spiked round trip can reach the 40 ms first RTO exactly (5 + 15,
#: 20 + 0) or pass it, so the ACK comes after the retransmission.
_EXTRA = (5.0, 15.0, 20.0, 25.0)


@st.composite
def _hold_free(draw):
    """A crash-free script and a base loss rate: up to two loss windows
    (possibly sharing an edge), a partition with an isolated outsider,
    a global delay spike, a second global spike overlapping it with an
    off-grid delay (so the order of its float sums shows in the last
    bit), and a spike on a node set (disjoint, adjacent or overlapping).

    The actor loop draws its loss uniforms per send, in ``(time, seq)``
    order; the wave draws them per epoch in enumeration order.  The two
    orders agree while every epoch's cohort leaves at one instant, each
    frame lands before the next RTO (a spike adds at most 25 ms to a
    10 ms hop against a 40 ms first RTO — overlapping spikes add up, so
    their sum stays within that) and the messages a node spike delays
    come last in enumeration order.  A crash would break the first: a
    held frame's attempt moves to the recovery instant, where the actor
    draws its uniform, while the wave draws it in cohort position.
    """
    events = []
    a, b, c = sorted(draw(st.lists(st.sampled_from(_EDGES), min_size=3,
                                   max_size=3, unique=True)))
    rate = st.floats(0.05, 0.5)
    if draw(st.booleans()):
        events.append(LossWindow(a, b, draw(rate)))
        if draw(st.booleans()):
            events.append(LossWindow(b, c, draw(rate)))  # shared edge
    if draw(st.booleans()):
        s, e = sorted(draw(st.lists(st.sampled_from(_EDGES), min_size=2,
                                    max_size=2, unique=True)))
        cut = draw(st.integers(1, 10))
        events.append(PartitionWindow(
            s, e, (tuple(range(cut)), tuple(range(cut, 11))),  # 11: outsider
        ))
    window = st.lists(st.sampled_from(_EDGES), min_size=2, max_size=2,
                      unique=True).map(sorted)
    spikes = []

    def room(s, e):
        """What a spike on ``[s, e)`` may add: each spike leaves the
        next the budget minus every earlier spike it overlaps, so no
        instant sums more than 25 ms."""
        return 25.0 - sum(sp.extra_delay_ms for sp in spikes
                          if s < sp.t_end_ms and sp.t_start_ms < e)

    spike_nodes, first = None, None
    if draw(st.booleans()):
        first = DelaySpike(*draw(window), draw(st.sampled_from(_EXTRA)))
        spikes.append(first)
        if draw(st.booleans()) and first.extra_delay_ms < 25.0:
            # Overlaps ``first`` on [max(s, first start), min(e, first end)).
            s = draw(st.sampled_from(
                [t for t in _EDGES if t < first.t_end_ms]))
            e = draw(st.sampled_from(
                [t for t in _EDGES if t > max(s, first.t_start_ms)]))
            spikes.append(DelaySpike(s, e, draw(st.floats(
                0.1, room(s, e), allow_nan=False))))
    if draw(st.booleans()):
        s, e = draw(window)
        extras = [v for v in _EXTRA if v <= room(s, e)]
        if extras:
            spike_nodes = tuple(sorted(draw(st.sets(
                st.integers(0, 11), min_size=1, max_size=3))))
            spikes.append(DelaySpike(s, e, draw(st.sampled_from(extras)),
                                     nodes=spike_nodes))
    loss = draw(st.sampled_from([0.0, 0.1, 0.25, 0.5]))
    return FaultSchedule(events + spikes), loss, spike_nodes


@given(_hold_free(), st.integers(0, 2**16),
       st.sampled_from(["spread", "one instant", "near"]))
@settings(max_examples=200, deadline=None)
def test_loss_and_delay_equal_per_instant_sums(script, seed, how):
    """Batches inside one span of the script (returned without a
    per-message pass) and across edges read the rate the windows set
    and the spikes' delays summed in script order."""
    schedule, loss, _ = script
    tl = schedule.timeline(loss)
    rng = np.random.default_rng(seed)
    n = 60
    if how == "spread":
        times = rng.choice([*_EDGES, 2.5, 45.0, 250.0, 1e6], size=n)
    else:
        times = np.full(n, rng.choice(_EDGES))
        if how == "near":
            times += rng.random(n) * 12.0
    src, dst = rng.integers(0, 12, size=(2, n))
    windows = [e for e in schedule.events if isinstance(e, LossWindow)]
    spikes = [e for e in schedule.events if isinstance(e, DelaySpike)]
    rates, extras = [], []
    for s, d, t in zip(src.tolist(), dst.tolist(), times.tolist()):
        rate, extra = loss, 0.0
        for w in windows:
            if w.t_start_ms <= t < w.t_end_ms:
                rate = w.loss_rate
        for sp in spikes:
            on = sp.t_start_ms <= t < sp.t_end_ms and (
                sp.nodes is None or s in sp.nodes or d in sp.nodes)
            extra += on * sp.extra_delay_ms
        rates.append(rate)
        extras.append(extra)
    assert tl.loss_rate_at(times).tolist() == rates
    assert tl.extra_delay_at(src, dst, times).tolist() == extras


@st.composite
def _span_scripts(draw):
    """Two loss windows sharing an edge, three overlapping global delay
    spikes (three, so their float sum depends on its order) and a
    node-scoped spike, at generated times and values, and a base loss
    rate."""
    t = st.floats(0.0, 500.0)
    a, b, c = sorted(draw(st.lists(t, min_size=3, max_size=3, unique=True)))
    # s1 < s2 < s3 < e1 < e2 < e3: all three overlap on [s3, e1).
    s1, s2, s3, e1, e2, e3 = sorted(draw(st.lists(t, min_size=6, max_size=6,
                                                  unique=True)))
    s4, e4 = sorted(draw(st.lists(t, min_size=2, max_size=2, unique=True)))
    rate, extra = st.floats(0.01, 0.99), st.floats(0.01, 50.0)
    nodes = tuple(sorted(draw(st.sets(st.integers(0, 11), min_size=1,
                                      max_size=3))))
    return FaultSchedule([
        LossWindow(a, b, draw(rate)), LossWindow(b, c, draw(rate)),
        DelaySpike(s1, e1, draw(extra)), DelaySpike(s2, e2, draw(extra)),
        DelaySpike(s3, e3, draw(extra)),
        DelaySpike(s4, e4, draw(extra), nodes=nodes),
    ]), draw(st.sampled_from([0.0, 0.2]))


def _inside(edges, span, rng, n):
    """``n`` times in span ``span`` between consecutive ``edges`` (the
    number of edges at or below them), its closed start among them."""
    lo = edges[span - 1] if span else edges[0] - 100.0
    hi = edges[span] if span < len(edges) else edges[-1] + 100.0
    times = rng.uniform(lo, hi, n)
    times[0] = lo
    return np.minimum(times, np.nextafter(hi, -np.inf)), lo


def _bits(x, n):
    return np.broadcast_to(np.float64(x), n).view(np.int64).tolist()


@given(_span_scripts(), st.integers(0, 2**16), st.data())
@settings(max_examples=200, deadline=None)
def test_one_span_answers_are_floats_equal_to_per_message_answers(
        script, seed, data):
    """Times inside one span get a loss rate and (outside node-scoped
    spikes) an extra delay as one float, bit for bit every per-message
    answer: ``loss_rate_at`` / ``extra_delay_at`` and the per-edge path
    that bounds straddling every edge force."""
    schedule, loss = script
    tl = schedule.timeline(loss)
    rng = np.random.default_rng(seed)
    n = 40
    windows = [e for e in schedule.events if isinstance(e, LossWindow)]
    edges = sorted({t for w in windows for t in (w.t_start_ms, w.t_end_ms)})
    times, _ = _inside(edges, data.draw(st.integers(0, len(edges))), rng, n)
    rate = tl.loss_rate_within(times, times.min(), times.max())
    assert isinstance(rate, float)
    assert tl.loss_rate_at(times).view(np.int64).tolist() == _bits(rate, n)
    per_edge = tl.loss_rate_within(times, -np.inf, np.inf)
    assert per_edge.view(np.int64).tolist() == _bits(rate, n)

    spikes = [e for e in schedule.events if isinstance(e, DelaySpike)]
    edges = sorted({t for sp in spikes for t in (sp.t_start_ms, sp.t_end_ms)})
    span = data.draw(st.integers(0, len(edges)))
    times, start = _inside(edges, span, rng, n)
    # A wave's endpoints, of which the cohort is every other message.
    src, dst = rng.integers(0, 12, size=(2, 2 * n))
    ids = np.arange(0, 2 * n, 2)
    extra = tl.extra_delay_within(src, dst, ids, times, times.min(),
                                  times.max())
    node_spike = next(sp for sp in spikes if sp.nodes is not None)
    assert isinstance(extra, float) == (
        not span or not node_spike.t_start_ms <= start < node_spike.t_end_ms)
    at = tl.extra_delay_at(src[ids], dst[ids], times)
    per_edge = tl.extra_delay_within(src, dst, ids, times, -np.inf, np.inf)
    assert per_edge.view(np.int64).tolist() == at.view(np.int64).tolist()
    if isinstance(extra, float):
        assert at.view(np.int64).tolist() == _bits(extra, n)


@given(_hold_free(), st.integers(1, 6), st.integers(0, 2**16))
@settings(max_examples=200, deadline=None)
def test_armed_actor_matches_timeline_wave_without_crash_holds(
        script, max_attempts, seed):
    """Hold-free scripts, three executions: the actor loop under the
    armed schedule, the timeline item wave and its per-item replay —
    one timeline, two paths.  FixedLatency draws nothing and every
    message departs at t=0, from a callback scheduled before the
    schedule is armed, so a window opening at t=0 must hold it all the
    same.  All three agree bit for bit on arrival times (each
    ``t + (latency + extra)``, overlapping spikes summed first), clock,
    transport counters and trace totals, exhausted sends included, and
    the per-item replay on every trace record — an independent check of
    the wave's precomputed fates (the per-item replay shares them)."""
    schedule, loss, spike_nodes = script
    rng = np.random.default_rng(seed)
    src = rng.integers(0, 12, size=60)
    dst = (src + 1 + rng.integers(0, 11, size=60)) % 12
    if spike_nodes is not None:  # the node spike's messages go last
        hit = np.isin(src, spike_nodes) | np.isin(dst, spike_nodes)
        order = np.argsort(hit, kind="stable")
        src, dst = src[order], dst[order]

    def net_for():
        sim = Simulator()
        net = Network(
            sim, latency=FixedLatency(10.0),
            rng=np.random.default_rng(seed), loss_rate=loss,
            transport="reliable",
            transport_opts={"base_rto_ms": 40.0,
                            "max_attempts": max_attempts},
            trace=TraceRecorder(keep_records=True),
        )
        nodes = [Stub(i, sim) for i in range(12)]
        for nd in nodes:
            net.register(nd)
        return sim, net, nodes

    def records(net):
        """Every frame's and ACK's trace record: time, endpoints and fate
        (the wave orders a send instant's link and loss drops by
        category, so they compare as a sorted list)."""
        return sorted(astuple(r) for r in net.trace.records)

    sim, net, nodes = net_for()
    sim.schedule_at(0.0, lambda: [
        net.send(int(s), int(d), i, size_bits=64.0, kind="x")
        for i, (s, d) in enumerate(zip(src, dst))])
    schedule.arm(sim, net)
    sim.run()
    arrivals = actor_arrivals(nodes, len(src))
    actor = _fingerprint(sim, net)
    actor_records = records(net)

    for side, replay in REPLAYS:
        with replay():
            sim, net, _ = net_for()
            net.fault_timeline = schedule.timeline(net.loss_rate)
            wave = net.send_batch(src, dst, size_bits=64.0, kind="x")
            sim.run()
        np.testing.assert_array_equal(wave.delivery_times, arrivals)
        assert _fingerprint(sim, net) == actor
        if side == "per_item":  # the wave's ledger records runs, not frames
            assert records(net) == actor_records


def test_a_long_crashed_sender_hold_probes_in_doubling_chunks():
    """A sender down from t=0 to 5e6 ms with a 40 ms RTO: the scalar
    transport re-probes 125,000 times and resends on recovery.  The
    wave lands the same send at the same instant after as many
    attempts, asking the timeline O(log probes) times — it used to give
    up after 100,000 probes."""
    schedule = FaultSchedule([Crash(0.0, 1), Recover(5e6, 1)])

    def net_for():
        sim = Simulator()
        net = Network(sim, latency=FixedLatency(10.0),
                      rng=np.random.default_rng(0), transport="reliable",
                      transport_opts={"base_rto_ms": 40.0,
                                      "max_attempts": 4})
        nodes = [Stub(i, sim) for i in range(2)]
        for nd in nodes:
            net.register(nd)
        return sim, net, nodes

    sim, net, nodes = net_for()
    schedule.arm(sim, net)
    net.send(1, 0, "m", size_bits=64.0, kind="x")
    sim.run()
    [(t_scalar, _, _)] = nodes[0].received
    assert t_scalar == 5_000_010.0
    attempts_scalar = 1 + net.reliable.retransmits

    sim, net, _ = net_for()
    tl = net.fault_timeline = schedule.timeline()
    calls = []
    crashed_at = tl.crashed_at
    tl.crashed_at = lambda n, t: calls.append(len(n)) or crashed_at(n, t)
    wave = net.send_batch(np.array([1]), np.array([0]), size_bits=64.0,
                          kind="x")
    sim.run()
    assert wave.delivery_times.tolist() == [t_scalar]
    assert wave.attempts.tolist() == [attempts_scalar] == [2]
    # 125,000 probes: 18 doubling chunks, plus the link queries'.
    assert len(calls) <= 2 * 17 + 10, len(calls)
    assert sum(calls) < 2 * 125_000 + 100


def test_timeline_round_differs_from_fault_free():
    src, dst = _workload()
    fingerprints = []
    for schedule in (SCHEDULE, None):
        sim, net, _ = _faulty_net(schedule)
        wave = net.send_batch(src, dst, size_bits=64.0, kind="x")
        sim.run()
        fingerprints.append((np.nan_to_num(wave.delivery_times, nan=-1.0).tolist(),
                             _fingerprint(sim, net)))
    assert fingerprints[0] != fingerprints[1]
