"""Unit tests for fault schedules, their validation, and arming."""

import numpy as np
import pytest

from repro.chaos import (
    PROFILES,
    ChaosPlan,
    Crash,
    DelaySpike,
    FaultSchedule,
    LossWindow,
    PartitionWindow,
    Recover,
)
from repro.simnet import FixedLatency, Network, SimNode, Simulator


class Recorder(SimNode):
    """Records ``(time, src, msg)`` of everything it receives."""

    def __init__(self, node_id, sim, network):
        super().__init__(node_id, sim, network)
        self.received = []

    def on_message(self, src, msg):
        self.received.append((self.sim.now, src, msg))


def make_net(n=4, loss_rate=0.0):
    sim = Simulator()
    network = Network(
        sim, latency=FixedLatency(10.0), rng=np.random.default_rng(0),
        loss_rate=loss_rate,
    )
    for i in range(n):
        Recorder(i, sim, network)
    return sim, network


class TestEventValidation:
    def test_windows_need_positive_span(self):
        with pytest.raises(ValueError):
            LossWindow(10.0, 10.0, 0.5)
        with pytest.raises(ValueError):
            PartitionWindow(20.0, 10.0, ((0,), (1,)))
        with pytest.raises(ValueError):
            DelaySpike(10.0, 5.0, 30.0)

    def test_loss_rate_bounds(self):
        with pytest.raises(ValueError):
            LossWindow(0.0, 10.0, 0.0)
        with pytest.raises(ValueError):
            LossWindow(0.0, 10.0, 1.0)

    def test_partition_needs_two_groups(self):
        with pytest.raises(ValueError):
            PartitionWindow(0.0, 10.0, ((0, 1),))

    def test_spike_delay_positive(self):
        with pytest.raises(ValueError):
            DelaySpike(0.0, 10.0, 0.0)


class TestScheduleValidation:
    def test_events_sorted_by_start_time(self):
        sched = FaultSchedule([Recover(50.0, 1), Crash(10.0, 1)])
        assert isinstance(sched.events[0], Crash)

    def test_double_crash_rejected(self):
        with pytest.raises(ValueError, match="crashed twice"):
            FaultSchedule([Crash(10.0, 1), Crash(20.0, 1)])

    def test_crash_recover_crash_is_fine(self):
        FaultSchedule([Crash(10.0, 1), Recover(20.0, 1), Crash(30.0, 1)])

    def test_recover_without_crash_rejected(self):
        with pytest.raises(ValueError, match="without a prior crash"):
            FaultSchedule([Recover(20.0, 1)])

    def test_overlapping_loss_windows_rejected(self):
        with pytest.raises(ValueError, match="overlapping"):
            FaultSchedule([
                LossWindow(0.0, 50.0, 0.2), LossWindow(40.0, 90.0, 0.3),
            ])

    def test_inspection_helpers(self):
        sched = FaultSchedule([
            Crash(10.0, 1), Recover(60.0, 1), Crash(20.0, 2),
            LossWindow(0.0, 80.0, 0.2),
            DelaySpike(30.0, 90.0, 25.0, nodes=(3,)),
        ])
        assert {c.node for c in sched.crashes()} == {1, 2}
        assert sched.crashed_nodes() == frozenset({2})  # 1 recovered
        assert sched.touched_nodes() == frozenset({1, 2, 3})
        assert sched.end_ms() == 90.0
        assert "crash(1)@10" in sched.describe()
        # Any iterable: asked for membership when it can answer (a range
        # is never expanded), consumed once otherwise.
        for known in (lambda n: range(n), lambda n: set(range(n)),
                      lambda n: (i for i in range(n))):
            sched.validate_nodes(known(4))
            with pytest.raises(ValueError, match=r"unknown nodes \[3\]"):
                sched.validate_nodes(known(3))

    def test_shifted_translates_everything(self):
        sched = FaultSchedule([
            Crash(10.0, 1), LossWindow(0.0, 80.0, 0.2),
        ]).shifted(100.0)
        assert sched.end_ms() == 180.0
        assert sched.crashes()[0].t_ms == 110.0

    def test_empty_schedule_describes_itself(self):
        assert FaultSchedule([]).describe() == "(fault-free)"


class TestArming:
    def test_crash_and_recover_fire_at_their_times(self):
        sim, network = make_net()
        FaultSchedule([Crash(10.0, 1), Recover(50.0, 1)]).arm(sim, network)
        sim.run_until(20.0)
        assert network.is_crashed(1)
        sim.run_until(60.0)
        assert not network.is_crashed(1)

    def test_loss_window_restores_prior_rate(self):
        """A send reads the rate in force at its instant from the
        timeline: the window's inside it, the network's own outside."""
        sim, network = make_net(loss_rate=0.05)
        FaultSchedule([LossWindow(10.0, 50.0, 0.4)]).arm(sim, network)
        tl = network.fault_timeline
        for t, rate in ((0.0, 0.05), (10.0, 0.4), (20.0, 0.4), (50.0, 0.05)):
            sim.run_until(t)
            assert tl.span_at(sim.now).loss_rate == rate
        assert network.loss_rate == 0.05

    def test_partition_window_heals(self):
        sim, network = make_net()
        FaultSchedule([
            PartitionWindow(10.0, 50.0, ((0, 1), (2, 3))),
        ]).arm(sim, network)
        sim.run_until(20.0)
        assert not network.link_up(0, 2)
        assert network.link_up(0, 1)
        sim.run_until(60.0)
        assert network.link_up(0, 2)

    def test_delay_spike_slows_affected_nodes_then_restores(self):
        sim, network = make_net()
        nodes = [network.node(i) for i in range(3)]
        FaultSchedule([DelaySpike(10.0, 50.0, 25.0, nodes=(2,))]).arm(
            sim, network
        )
        sim.run_until(20.0)
        nodes[2].send(0, "affected src")
        nodes[0].send(2, "affected dst")
        nodes[0].send(1, "untouched pair")
        sim.run_until(60.0)
        nodes[0].send(2, "after")
        sim.run()
        assert [n.received for n in nodes] == [
            [(55.0, 2, "affected src")],
            [(30.0, 0, "untouched pair")],
            [(55.0, 0, "affected dst"), (70.0, 0, "after")],
        ]

    @pytest.mark.parametrize("spikes,probes", [
        # nested: the outer spike outlives the inner one
        ([DelaySpike(10.0, 50.0, 5.0), DelaySpike(20.0, 40.0, 7.0)],
         {0.0: 0.0, 15.0: 5.0, 30.0: 12.0, 45.0: 5.0, 60.0: 0.0}),
        # staggered: the first to open closes first
        ([DelaySpike(10.0, 30.0, 5.0), DelaySpike(20.0, 40.0, 7.0)],
         {15.0: 5.0, 25.0: 12.0, 30.0: 7.0, 35.0: 7.0, 40.0: 0.0}),
    ])
    def test_overlapping_spikes_close_their_own_delay(self, spikes, probes):
        """An actor send at each instant, edges included, arrives
        ``FaultTimeline.extra_delay_at`` late, and the latency model is
        never touched."""
        sim, network = make_net()
        base = network.latency
        nodes = [network.node(i) for i in range(2)]
        schedule = FaultSchedule(spikes)
        timeline = schedule.timeline(0.0)
        schedule.arm(sim, network)
        for t, extra in probes.items():
            sim.run_until(t)
            nodes[0].send(1, t)
            assert extra == timeline.extra_delay_at([0], [1], [t])[0]
        sim.run()
        assert sorted(nodes[1].received) == sorted(
            (t + (10.0 + extra), 0, t) for t, extra in probes.items())
        assert network.latency is base

    def test_armed_timeline_answers_may_recover(self):
        sim, network = make_net()
        FaultSchedule([Crash(10.0, 1), Recover(50.0, 1)]).arm(sim, network)
        sim.run_until(20.0)
        assert network.may_recover(1)       # recovery still pending
        sim.run_until(60.0)
        assert not network.may_recover(1)   # already happened

    def test_second_arm_merges_into_the_installed_schedule(self):
        sim, network = make_net()
        first = FaultSchedule([
            Crash(10.0, 1), Recover(30.0, 1), LossWindow(0.0, 50.0, 0.2)])
        second = FaultSchedule([Crash(20.0, 2), DelaySpike(20.0, 40.0, 5.0)])
        first.arm(sim, network)
        second.arm(sim, network)
        tl = network.fault_timeline
        assert tl.schedule == FaultSchedule(first.events + second.events)
        sim.run_until(20.0)
        assert network.is_crashed(1) and network.may_recover(1)
        assert network.is_crashed(2) and not network.may_recover(2)
        assert tl.span_at(20.0).loss_rate == 0.2
        assert tl.span_at(20.0).extra_delay(0, 3) == 5.0
        sim.run_until(30.0)
        assert not network.is_crashed(1)
        # Validated together: each is valid alone, not merged.
        for bad in ([LossWindow(40.0, 60.0, 0.3)], [Crash(60.0, 2)]):
            with pytest.raises(ValueError, match="overlapping|twice"):
                FaultSchedule(bad).arm(sim, network)
        assert network.fault_timeline is tl

    def test_without_oracle_crashes_are_permanent(self):
        sim, network = make_net()
        network.crash(1)
        assert not network.may_recover(1)


class TestChaosPlan:
    def test_sampling_is_deterministic_in_the_seed(self):
        a = ChaosPlan.sample(
            np.random.default_rng(42), "mixed", nodes=range(8), protected=(0,)
        )
        b = ChaosPlan.sample(
            np.random.default_rng(42), "mixed", nodes=range(8), protected=(0,)
        )
        assert a.schedule.describe() == b.schedule.describe()

    def test_protected_nodes_never_crash_straggle_or_get_cut_off(self):
        protected = {0, 4}
        for seed in range(20):
            plan = ChaosPlan.sample(
                np.random.default_rng(seed), "mixed",
                nodes=range(8), protected=protected,
            )
            for event in plan.schedule.events:
                if isinstance(event, (Crash, Recover)):
                    assert event.node not in protected
                elif isinstance(event, DelaySpike):
                    assert not set(event.nodes) & protected
                elif isinstance(event, PartitionWindow):
                    # all protected nodes stay together (majority side)
                    majority = set(event.groups[0])
                    assert protected <= majority

    def test_max_crashes_caps_permanent_crashes(self):
        for seed in range(20):
            plan = ChaosPlan.sample(
                np.random.default_rng(seed), "crashes",
                nodes=range(8), max_crashes=2,
            )
            assert len(plan.schedule.crashed_nodes()) <= 2

    def test_every_profile_samples_a_valid_schedule(self):
        for name in PROFILES:
            plan = ChaosPlan.sample(
                np.random.default_rng(1), name, nodes=range(6)
            )
            assert plan.profile == name
            plan.schedule.validate_nodes(range(6))

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos profile"):
            ChaosPlan.sample(np.random.default_rng(0), "nope", nodes=range(4))
