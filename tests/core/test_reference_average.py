"""The no-simulator Alg. 3 reference == every actor round that completes.

``two_layer_reference_average`` / ``sac_reference_average`` replace the
fault-free reference *simulation* in ``repro.chaos`` and
``repro.campaign``; this suite is the pin that replacement rests on:
bit-identity with the per-message actor round over random ragged
groupings, ``k``, seeds, model sizes, ``parallel=`` modes, the reliable
transport under loss, and crash schedules recovered by Alg. 4.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chaos import Crash, FaultSchedule
from repro.core import (
    dense_topology,
    run_two_layer_wire_round,
    two_layer_reference_average,
)
from repro.par import PARALLEL_MODES, SubgroupTask, run_subgroup_round
from repro.secure import run_sac_protocol, sac_reference_average
from repro.secure.protocol import spawn_peer_seeds


def build_round(sizes, seed, d, k):
    """A ragged grouping (as a dense topology), models, k and the seed."""
    rng = np.random.default_rng(seed)
    # Stable ids are sparse and shuffled, as after campaign churn.
    stable = rng.permutation(3 * sum(sizes))[: sum(sizes)]
    cuts = np.cumsum(sizes)[:-1]
    topology = dense_topology(
        tuple(tuple(int(p) for p in g) for g in np.split(stable, cuts))
    )
    models = [rng.normal(size=d) for _ in range(topology.n_peers)]
    return topology, models, k, seed


@st.composite
def rounds(draw):
    sizes = draw(st.lists(st.integers(2, 7), min_size=1, max_size=5))
    return build_round(
        sizes,
        seed=draw(st.integers(0, 2**31 - 1)),
        d=draw(st.sampled_from([1, 7, 4096])),
        k=draw(st.integers(1, min(sizes))),
    )


def tolerated_crashes(topology, k, rng):
    """Up to ``n - k`` non-leader victims per group, after share-out.

    Bundles land at t = 15 ms, so every crash here leaves each share
    index with a surviving holder: the round must complete, the leader
    fetching what the victims never sent (Alg. 4 lines 17-18).
    """
    crashes = {}
    for group, leader in zip(topology.groups, topology.leaders):
        followers = [p for p in group if p != leader]
        budget = min(len(group) - k, len(followers))
        for pid in rng.permutation(followers)[: rng.integers(0, budget + 1)]:
            crashes[int(pid)] = float(rng.uniform(15.5, 60.0))
    return crashes


class TestTwoLayerReference:
    @given(rounds())
    @example(build_round([4], seed=7, d=7, k=2))  # m = 1: no fan-out at all
    @settings(max_examples=25, deadline=None)
    def test_equals_fault_free_round_in_every_parallel_mode(self, case):
        topology, models, k, seed = case
        reference = two_layer_reference_average(topology, models, seed=seed)
        for mode in PARALLEL_MODES:
            result = run_two_layer_wire_round(
                topology, models, k=k, seed=seed, parallel=mode
            )
            assert result.outcome.ok
            assert np.array_equal(result.average, reference), mode

    @given(rounds(), st.floats(0.01, 0.3))
    @settings(max_examples=15, deadline=None)
    def test_equals_reliable_round_under_loss(self, case, loss_rate):
        topology, models, k, seed = case
        result = run_two_layer_wire_round(
            topology, models, k=k, seed=seed,
            transport="reliable", loss_rate=loss_rate,
        )
        assert result.outcome.ok, result.outcome
        assert np.array_equal(
            result.average,
            two_layer_reference_average(topology, models, seed=seed),
        )

    @given(rounds())
    @settings(max_examples=20, deadline=None)
    def test_equals_round_recovered_by_alg4(self, case):
        topology, models, k, seed = case
        crashes = tolerated_crashes(
            topology, k, np.random.default_rng([seed, 1])
        )
        reference = two_layer_reference_average(topology, models, seed=seed)
        plain = run_two_layer_wire_round(
            topology, models, k=k, seed=seed, crash_at=crashes
        )
        armed = run_two_layer_wire_round(
            topology, models, k=k, seed=seed, transport="reliable",
            schedule=FaultSchedule(
                [Crash(t, pid) for pid, t in sorted(crashes.items())]
            ),
        )
        for result in (plain, armed):
            assert result.outcome.ok, result.outcome
            assert np.array_equal(result.average, reference)

    def test_model_dtype_and_shape_follow_the_actors(self):
        topology = dense_topology(((0, 1, 2), (3, 4, 5, 6)))
        rng = np.random.default_rng(0)
        models = [
            rng.normal(size=(3, 5)).astype(np.float32) for _ in range(7)
        ]
        result = run_two_layer_wire_round(topology, models, k=2, seed=4)
        reference = two_layer_reference_average(topology, models, seed=4)
        assert reference.dtype == np.float64 and reference.shape == (3, 5)
        assert np.array_equal(result.average, reference)

    @pytest.mark.parametrize("codec", ["seed", "seed-dense", "bogus"])
    def test_only_the_dense_codec_has_a_reference(self, codec):
        topology = dense_topology(((0, 1), (2, 3)))
        models = [np.ones(4)] * 4
        with pytest.raises(ValueError, match="codec"):
            two_layer_reference_average(topology, models, share_codec=codec)

    def test_model_count_and_shapes_are_checked(self):
        topology = dense_topology(((0, 1), (2, 3)))
        with pytest.raises(ValueError, match="expected 4 models"):
            two_layer_reference_average(topology, [np.ones(4)] * 3)
        with pytest.raises(ValueError, match="all models must share a shape"):
            two_layer_reference_average(
                topology, [np.ones(4)] * 3 + [np.ones(5)]
            )


class TestSacReference:
    @given(
        n=st.integers(1, 7),
        d=st.sampled_from([1, 7, 4096]),
        seed=st.integers(0, 2**31 - 1),
        loss_rate=st.floats(0.01, 0.3),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_equals_the_protocol_round(self, n, d, seed, loss_rate, data):
        k = data.draw(st.integers(1, n))
        leader = data.draw(st.integers(0, n - 1))
        rng = np.random.default_rng(seed)
        models = [rng.normal(size=d) for _ in range(n)]
        reference = sac_reference_average(models, seed=seed)
        followers = [p for p in range(n) if p != leader]
        victims = rng.permutation(followers)[: min(n - k, len(followers))]
        crashes = {int(p): float(rng.uniform(15.5, 60.0)) for p in victims}
        for kw in (
            {},
            {"transport": "reliable", "loss_rate": loss_rate},
            {"crash_at": crashes},
        ):
            result = run_sac_protocol(
                models, k=k, leader=leader, seed=seed, **kw
            )
            assert result.outcome.ok, (kw, result.outcome)
            assert np.array_equal(result.average, reference), kw

    @given(
        n=st.integers(1, 7),
        d=st.sampled_from([1, 7, 4096]),
        seed=st.integers(0, 2**31 - 1),
        codec=st.sampled_from(["dense", "seed"]),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_the_subgroup_worker_is_the_protocol_round(
        self, n, d, seed, codec, data
    ):
        # ``run_subgroup_round`` must stay the runner ``run_sac_protocol``
        # is, never again a second implementation: same members and peer
        # seeds, same round — recoveries and unrecoverable dropouts too.
        k = data.draw(st.integers(1, n))
        leader = data.draw(st.integers(0, n - 1))
        rng = np.random.default_rng(seed)
        models = [rng.normal(size=d) for _ in range(n)]
        followers = [p for p in range(n) if p != leader]
        victims = data.draw(st.lists(st.sampled_from(followers), unique=True)
                            if followers else st.just([]))
        crash_at = {p: float(rng.choice([1.0, 20.0])) for p in victims}
        task = SubgroupTask(
            group=3, members=tuple(range(n)), leader=leader, k=k,
            models=tuple(models),
            peer_seeds=spawn_peer_seeds(np.random.default_rng(seed), n),
            share_codec=codec, delay_ms=15.0, bandwidth_bps=None,
            subtotal_timeout_ms=100.0, round_timeout_ms=10_000.0,
            crash_at=crash_at,
        )
        worker = run_subgroup_round(task)
        direct = run_sac_protocol(
            models, k=k, leader=leader, seed=seed, share_codec=codec,
            crash_at=crash_at,
        )
        assert worker.outcome == direct.outcome
        assert (worker.average is None) == (direct.average is None)
        if direct.outcome.ok:
            assert np.array_equal(worker.average, direct.average)
        for field in ("finish_time_ms", "end_time_ms", "bits_sent",
                      "messages_sent", "bits_by_kind", "drops",
                      "recovered_shares", "heap_stats"):
            assert getattr(worker, field) == getattr(direct, field), field

    def test_recovered_round_is_the_fault_free_aggregate(self):
        # A concrete Alg. 4 recovery (not just a tolerated crash): the
        # leader fetches a replica, and the aggregate does not move.
        rng = np.random.default_rng(3)
        models = [rng.normal(size=64) for _ in range(5)]
        result = run_sac_protocol(models, k=3, seed=9, crash_at={4: 20.0})
        assert result.outcome.ok and result.recovered_shares
        assert np.array_equal(
            result.average, sac_reference_average(models, seed=9)
        )

    @pytest.mark.parametrize("codec", ["seed", "seed-dense", "bogus"])
    def test_only_the_dense_codec_has_a_reference(self, codec):
        with pytest.raises(ValueError, match="codec"):
            sac_reference_average([np.ones(4)] * 3, share_codec=codec)
