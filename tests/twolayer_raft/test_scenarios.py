"""Tests for the instrumented recovery scenarios (Figs. 10-12 machinery)."""

import numpy as np
import pytest

from repro.core import Topology
from repro.twolayer_raft import (
    fedavg_leader_recovery_trial,
    run_trials,
    subgroup_leader_recovery_trial,
)

FAST = dict(topology=Topology.by_group_count(9, 3), settle_ms=500.0)


class TestSubgroupLeaderRecovery:
    def test_trial_produces_times(self):
        times = subgroup_leader_recovery_trial(seed=0, **FAST)
        assert times.sub_elect_ms is not None and times.sub_elect_ms > 0
        assert times.join_fedavg_ms is not None
        assert times.join_fedavg_ms >= times.sub_elect_ms

    def test_election_time_scales_with_timeout_base(self):
        """Fig. 10's headline: larger follower timeouts -> slower elections."""
        fast = [
            subgroup_leader_recovery_trial(
                seed=s, timeout_base_ms=50.0, **FAST
            ).sub_elect_ms
            for s in range(6)
        ]
        slow = [
            subgroup_leader_recovery_trial(
                seed=s, timeout_base_ms=200.0, **FAST
            ).sub_elect_ms
            for s in range(6)
        ]
        assert np.mean(slow) > np.mean(fast)

    def test_election_time_in_plausible_band(self):
        """Detection + election should land within a few timeout spans."""
        times = [
            subgroup_leader_recovery_trial(
                seed=s, timeout_base_ms=50.0, **FAST
            ).sub_elect_ms
            for s in range(10)
        ]
        mean = np.mean(times)
        # Paper (T=50): ~214 ms; anything between one timeout and ~12T is
        # structurally sane for this check (exact stats in benchmarks).
        assert 50.0 < mean < 600.0

    def test_deterministic_given_seed(self):
        a = subgroup_leader_recovery_trial(seed=7, **FAST)
        b = subgroup_leader_recovery_trial(seed=7, **FAST)
        assert a.sub_elect_ms == b.sub_elect_ms
        assert a.join_fedavg_ms == b.join_fedavg_ms


class TestFedAvgLeaderRecovery:
    def test_trial_produces_all_times(self):
        times = fedavg_leader_recovery_trial(seed=1, **FAST)
        assert times.fed_elect_ms is not None
        assert times.sub_elect_ms is not None
        assert times.join_fedavg_ms is not None
        assert times.full_recovery_ms == max(
            times.fed_elect_ms, times.sub_elect_ms, times.join_fedavg_ms
        )

    def test_join_waits_for_fed_election(self):
        """Sec. V-B1: the joiner cannot be added before a FedAvg leader
        exists, so join completion never precedes the FedAvg election."""
        for seed in range(5):
            times = fedavg_leader_recovery_trial(seed=seed, **FAST)
            if times.join_fedavg_ms is not None and times.fed_elect_ms is not None:
                assert times.join_fedavg_ms >= times.fed_elect_ms


class TestRunTrials:
    def test_batches_trials(self):
        results = run_trials(
            subgroup_leader_recovery_trial, 3, timeout_base_ms=50.0, **FAST
        )
        assert len(results) == 3
        assert all(r.sub_elect_ms is not None for r in results)
