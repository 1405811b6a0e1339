"""One no-simulator Alg. 1–4 == every path that computes the aggregate.

``repro.secure.sac`` holds the one seed fan-out (``spawn_peer_seeds``)
and the one group kernel (``reference_group_average``).  The oracles
``two_layer_reference_average`` / ``sac_reference_average`` — which
replaced the fault-free reference *simulation* in ``repro.chaos`` and
``repro.campaign`` — and the functional aggregators (``sac_average``,
``fault_tolerant_sac``, ``TwoLayerAggregator``) are callers of that pair;
this suite is the pin they rest on: bit-identity with each other and
with the per-message actor round over random ragged groupings, ``k``,
seeds, model sizes, share codecs, the reliable transport under loss,
and crash schedules recovered by Alg. 4.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chaos import Crash, FaultSchedule, LossWindow
from repro.core import (
    TwoLayerAggregator,
    dense_topology,
    run_two_layer_wire_round,
    two_layer_reference_average,
)
from repro.secure import (
    SHARE_CODECS,
    fault_tolerant_sac,
    run_sac_protocol,
    sac_average,
    sac_reference_average,
)
from repro.secure.sac import reference_group_average
from tests.chaos.test_properties import sized_budget

RNG = np.random.default_rng
codecs = st.sampled_from(SHARE_CODECS)


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


def functional_average(topology, models, k, seed, **faults):
    """The aggregator's answer at the round seed (dense shares only)."""
    return TwoLayerAggregator(topology, k).aggregate(
        models, RNG(seed), **faults
    ).average


class TestTwoLayerReference:
    @given(rounds(), codecs)
    @example(build_round([4], seed=7, d=7, k=2), "dense")  # m = 1: one group
    @settings(max_examples=25, deadline=None)
    def test_equals_fault_free_round(self, case, codec):
        topology, models, k, seed = case
        reference = two_layer_reference_average(
            topology, models, seed=seed, share_codec=codec
        )
        result = run_two_layer_wire_round(
            topology, models, k=k, seed=seed, share_codec=codec
        )
        assert result.outcome.ok
        assert np.array_equal(result.average, reference)
        if codec == "dense":
            assert np.array_equal(
                functional_average(topology, models, k, seed), reference
            )

    @given(rounds(), st.floats(0.01, 0.3))
    @example(build_round([5, 7, 5, 7, 6], seed=80, d=1, k=5), 0.273)
    @settings(max_examples=15, deadline=None)
    def test_equals_reliable_round_under_loss(self, case, loss_rate):
        topology, models, k, seed = case
        clean = run_two_layer_wire_round(topology, models, k=k, seed=seed)
        # The attempt budget and deadline under which no send of the
        # round's five chained hops is lost for good (p <= 1e-9).
        attempts, deadline = sized_budget(loss_rate, clean.messages_sent, hops=5)
        result = run_two_layer_wire_round(
            topology, models, k=k, seed=seed, transport="reliable",
            schedule=FaultSchedule([LossWindow(0.0, deadline, loss_rate)]),
            transport_opts={"max_attempts": attempts},
            round_timeout_ms=deadline,
        )
        assert result.outcome.ok, result.outcome
        assert np.array_equal(
            result.average,
            two_layer_reference_average(topology, models, seed=seed),
        )

    @given(rounds(), codecs)
    @settings(max_examples=20, deadline=None)
    def test_equals_round_recovered_by_alg4(self, case, codec):
        topology, models, k, seed = case
        crashes = tolerated_crashes(topology, k, RNG([seed, 1]))
        reference = two_layer_reference_average(
            topology, models, seed=seed, share_codec=codec
        )
        schedule = FaultSchedule(
            [Crash(t, pid) for pid, t in sorted(crashes.items())]
        )
        plain = run_two_layer_wire_round(
            topology, models, k=k, seed=seed, schedule=schedule,
            share_codec=codec,
        )
        armed = run_two_layer_wire_round(
            topology, models, k=k, seed=seed, transport="reliable",
            share_codec=codec, schedule=schedule,
        )
        for result in (plain, armed):
            assert result.outcome.ok, result.outcome
            assert np.array_equal(result.average, reference)
        if codec == "dense":
            dropouts = {
                gi: set(group) & set(crashes)
                for gi, group in enumerate(topology.groups)
            }
            assert np.array_equal(
                functional_average(
                    topology, models, k, seed, dropouts=dropouts
                ),
                reference,
            )

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
        assert np.array_equal(
            functional_average(topology, models, 2, 4), reference
        )

    @pytest.mark.parametrize("codec", ["seed", "seed-dense"])
    def test_seed_codecs_have_one(self, codec):
        # Every run, not only when Hypothesis draws the codec: a ragged
        # round with an Alg. 4 recovery in its largest group.
        topology = dense_topology(((0, 1, 2), (3, 4, 5, 6), (7, 8)))
        rng = np.random.default_rng(2)
        models = [rng.normal(size=33) for _ in range(9)]
        result = run_two_layer_wire_round(
            topology, models, k=2, seed=11, share_codec=codec,
            schedule=FaultSchedule([Crash(20.0, 6)]),
        )
        assert result.outcome.ok and result.recovered_shares
        assert np.array_equal(
            result.average,
            two_layer_reference_average(
                topology, models, seed=11, share_codec=codec
            ),
        )

    def test_a_bogus_codec_is_rejected(self):
        topology = dense_topology(((0, 1), (2, 3)))
        with pytest.raises(ValueError, match="codec"):
            two_layer_reference_average(
                topology, [np.ones(4)] * 4, share_codec="bogus"
            )

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
        codec=codecs,
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_equals_the_protocol_round(
        self, n, d, seed, loss_rate, codec, data
    ):
        k = data.draw(st.integers(1, n))
        leader = data.draw(st.integers(0, n - 1))
        rng = np.random.default_rng(seed)
        models = [rng.normal(size=d) for _ in range(n)]
        reference = sac_reference_average(models, seed=seed, share_codec=codec)
        assert reference.base is None  # owns its memory, pins no scratch
        followers = [p for p in range(n) if p != leader]
        victims = rng.permutation(followers)[: min(n - k, len(followers))]
        crashes = {int(p): float(rng.uniform(15.5, 60.0)) for p in victims}
        for kw in (
            {},
            {"transport": "reliable", "loss_rate": loss_rate},
            {"crash_at": crashes},
        ):
            result = run_sac_protocol(
                models, k=k, leader=leader, seed=seed, share_codec=codec, **kw
            )
            assert result.outcome.ok, (kw, result.outcome)
            assert np.array_equal(result.average, reference), kw
        if codec != "dense":
            return
        # The functional column: the same fan-out, the same kernel.
        plain = sac_average(models, RNG(seed))
        assert np.array_equal(plain.average, reference)
        for crashed in (set(), set(crashes)):
            tolerant = fault_tolerant_sac(
                models, k, RNG(seed), leader=leader, crashed=crashed,
            )
            assert np.array_equal(tolerant.average, reference), crashed

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

    @pytest.mark.parametrize("codec", ["seed", "seed-dense"])
    def test_seed_codecs_have_a_reference(self, codec):
        rng = np.random.default_rng(5)
        models = [rng.normal(size=33) for _ in range(4)]
        reference = sac_reference_average(models, seed=6, share_codec=codec)
        result = run_sac_protocol(models, k=3, seed=6, share_codec=codec)
        assert np.array_equal(result.average, reference)
        # Another rounding than the dense split (residual = model − Σ masks).
        assert not np.array_equal(
            reference, sac_reference_average(models, seed=6)
        )
        np.testing.assert_allclose(reference, np.mean(models, axis=0))

    def test_a_bogus_codec_is_rejected(self):
        with pytest.raises(ValueError, match="codec"):
            sac_reference_average([np.ones(4)] * 3, share_codec="bogus")


HOSTILE_GROUPS = {
    # would be silently truncated to the shortest model: [2, 2, 2]
    "ragged": [np.ones(3), 2 * np.ones(4), 3 * np.ones(3)],
    "empty": [],
}


class TestHostileInput:
    """The oracle grades production rounds: hostile input must raise a
    typed error, never return a number — from every caller alike."""

    @pytest.mark.parametrize("models", HOSTILE_GROUPS.values(),
                             ids=HOSTILE_GROUPS.keys())
    @pytest.mark.parametrize("call", [
        lambda models: reference_group_average(models, [1] * len(models)),
        lambda models: sac_reference_average(models),
        lambda models: sac_average(models, RNG(0)),
        lambda models: fault_tolerant_sac(models, max(len(models) - 1, 1), RNG(0)),
    ], ids=["kernel", "sac_reference", "sac_average", "fault_tolerant_sac"])
    def test_ragged_and_empty_groups_raise(self, call, models):
        with pytest.raises(ValueError):
            call(models)

    def test_seed_count_must_match_model_count(self):
        # A zip would drop the last owner and return [1, 1, 1]; the mean is 2.
        models = [np.ones(3), 2 * np.ones(3), 3 * np.ones(3)]
        for peer_seeds in ([1, 2], [1, 2, 3, 4]):
            with pytest.raises(ValueError, match="one seed per peer"):
                reference_group_average(models, peer_seeds)
