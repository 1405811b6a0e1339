"""`FaultTimeline`: the compiled, vectorized view of a FaultSchedule.

Two layers of contract:

- **query semantics** — every piecewise state function (loss edges,
  crash intervals, partition groups, delay spikes) mirrors the armed
  callbacks' closed-start / open-end windows exactly;
- **engine equivalence** — under ``FixedLatency`` (no per-draw RNG) the
  armed per-message actor loop, the timeline-driven item wave and the
  per-item replay of the same items (``tests/simnet/per_item.py``)
  produce bit-identical delivery order, finish time and transport
  counters for one faulty reliable round.
"""

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
from repro.simnet import FixedLatency, Network, Simulator
from tests.simnet.per_item import REPLAYS


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
        # Armed set_loss_rate swaps the rate; a window can *lower* it.
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
            # 4 is isolated (matches Network.set_partition); window is
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

#: No crashes: a crash *hold* moves an attempt to the recovery instant,
#: where the actor loop draws its loss uniform — but the wave draws the
#: whole epoch cohort in enumeration order regardless of per-message
#: holds, so the two streams decouple.  Wave == per-item stays exact
#: either way (shared item precompute); the bitwise *actor* pin is only
#: defined for hold-free schedules.
SOFT_SCHEDULE = FaultSchedule([
    LossWindow(30.0, 120.0, 0.4),
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


def _faulty_net(schedule, arm):
    sim = Simulator()
    net = Network(
        sim, latency=FixedLatency(10.0), rng=np.random.default_rng(17),
        loss_rate=0.2, transport="reliable",
        transport_opts={"base_rto_ms": 60.0, "max_attempts": 5},
    )
    nodes = [Stub(i, sim) for i in range(12)]
    for nd in nodes:
        net.register(nd)
    if arm:
        schedule.arm(sim, net)
    elif schedule is not None:
        net.fault_timeline = schedule.timeline(net.loss_rate)
    return sim, net, nodes


def _workload():
    m = 120
    rng = np.random.default_rng(23)
    src = rng.integers(0, 12, size=m)
    dst = (src + 1 + rng.integers(0, 11, size=m)) % 12
    return src, dst, [f"f{i}" for i in range(m)]


def _fingerprint(sim, net, nodes):
    rel = net.reliable
    return (
        [nd.received for nd in nodes], sim.now,
        rel.retransmits, rel.acks_sent, rel.duplicates_suppressed,
        len(rel.exhausted), rel.exhausted_undelivered,
        net.trace.total_bits, net.trace.total_messages,
        net.trace.total_dropped,
    )


def test_engines_bitwise_identical_under_crash_schedule():
    """Crashes + partition + spike: the wave and the per-item model replay
    the same precomputed items, so every observable agrees bit for bit
    (the actor loop is *not* comparable here — see ``SOFT_SCHEDULE``)."""
    src, dst, msgs = _workload()
    results = {}
    for side, replay in REPLAYS:
        with replay():
            sim, net, nodes = _faulty_net(SCHEDULE, arm=False)
            net.send_batch(src, dst, size_bits=64.0, kind="x", msgs=msgs)
            sim.run()
        results[side] = _fingerprint(sim, net, nodes)
    assert results["wave"] == results["per_item"]
    # The schedule actually bit.
    assert results["wave"][2] > 0  # retransmits
    assert results["wave"][5] > 0  # exhausted (node 7 never comes back)


def test_armed_actor_matches_timeline_wave_without_crash_holds():
    """One faulty reliable round, three executions: armed actor loop,
    timeline item wave, per-item replay.  FixedLatency draws nothing and
    the hold-free schedule keeps the per-message and per-epoch loss
    streams aligned, so all three agree bit for bit."""
    src, dst, msgs = _workload()

    sim, net, nodes = _faulty_net(SOFT_SCHEDULE, arm=True)
    for s, d, msg in zip(src, dst, msgs):
        net.send(int(s), int(d), msg, size_bits=64.0, kind="x")
    sim.run()
    actor = _fingerprint(sim, net, nodes)

    results = {}
    for side, replay in REPLAYS:
        with replay():
            sim, net, nodes = _faulty_net(SOFT_SCHEDULE, arm=False)
            net.send_batch(src, dst, size_bits=64.0, kind="x", msgs=msgs)
            sim.run()
        results[side] = _fingerprint(sim, net, nodes)

    assert results["wave"] == results["per_item"]
    assert actor == results["wave"]
    assert actor[2] > 0  # the loss window actually bit


def test_timeline_round_differs_from_fault_free():
    src, dst, msgs = _workload()
    fingerprints = []
    for schedule in (SCHEDULE, None):
        sim, net, nodes = _faulty_net(schedule, arm=False)
        net.send_batch(src, dst, size_bits=64.0, kind="x", msgs=msgs)
        sim.run()
        fingerprints.append(_fingerprint(sim, net, nodes))
    assert fingerprints[0] != fingerprints[1]
