"""Tests for the FL session driver (Figs. 6-9 engine)."""

import numpy as np
import pytest

from repro.core import SessionConfig, run_session
from repro.data import synthetic_blobs
from repro.nn import mlp_classifier

RNG = lambda seed=0: np.random.default_rng(seed)


def blob_factory(n_features=8):
    def factory(rng):
        return mlp_classifier(n_features, rng=rng, hidden=(16,))

    return factory


def small_dataset(seed=0):
    return synthetic_blobs(
        n_train=400, n_test=100, n_features=8, rng=RNG(seed), separation=3.0
    )


class TestRunSession:
    def test_runs_and_records_metrics(self):
        cfg = SessionConfig(n_peers=6, rounds=3, group_size=3, lr=1e-2, seed=1)
        history = run_session(blob_factory(), small_dataset(), cfg)
        assert len(history) == 3
        assert np.isfinite(history.accuracy).all()
        assert (history.comm_bits > 0).all()

    def test_learning_improves_accuracy(self):
        cfg = SessionConfig(
            n_peers=6, rounds=25, group_size=3, lr=1e-2, batch_size=20, seed=0
        )
        history = run_session(blob_factory(), small_dataset(), cfg)
        assert history.accuracy[-5:].mean() > history.accuracy[0] + 0.2
        assert history.accuracy[-1] > 0.6

    def test_two_layer_matches_one_layer_sac_exactly(self):
        """The Fig. 6 claim, verified bit-for-bit.

        With identical seeds, the two-layer aggregate equals the global
        mean equals one-layer SAC, so the entire training trajectory is
        identical (up to float roundoff in the share arithmetic).
        """
        ds = small_dataset()
        two = run_session(
            blob_factory(),
            ds,
            SessionConfig(n_peers=6, rounds=4, aggregator="two-layer",
                          group_size=3, lr=1e-2, seed=5),
        )
        one = run_session(
            blob_factory(),
            ds,
            SessionConfig(n_peers=6, rounds=4, aggregator="one-layer-sac",
                          group_size=3, lr=1e-2, seed=5),
        )
        np.testing.assert_allclose(two.accuracy, one.accuracy, atol=1e-6)
        np.testing.assert_allclose(two.train_loss, one.train_loss, rtol=1e-5)

    def test_two_layer_cheaper_than_one_layer(self):
        ds = small_dataset()
        two = run_session(
            blob_factory(), ds,
            SessionConfig(n_peers=9, rounds=2, group_size=3, lr=1e-2, seed=2),
        )
        one = run_session(
            blob_factory(), ds,
            SessionConfig(n_peers=9, rounds=2, aggregator="one-layer-sac",
                          lr=1e-2, seed=2),
        )
        assert two.comm_bits.sum() < one.comm_bits.sum()

    def test_fedavg_aggregator(self):
        cfg = SessionConfig(
            n_peers=4, rounds=2, aggregator="fedavg", lr=1e-2, seed=3
        )
        history = run_session(blob_factory(), small_dataset(), cfg)
        assert len(history) == 2

    def test_fraction_partial_participation(self):
        cfg = SessionConfig(
            n_peers=8, rounds=3, group_size=2, fraction=0.5, lr=1e-2, seed=4
        )
        history = run_session(blob_factory(), small_dataset(), cfg)
        assert len(history) == 3
        # Half the subgroups -> roughly half the SAC traffic.
        full = run_session(
            blob_factory(), small_dataset(),
            SessionConfig(n_peers=8, rounds=3, group_size=2, fraction=1.0,
                          lr=1e-2, seed=4),
        )
        assert history.comm_bits.sum() < full.comm_bits.sum()

    def test_deterministic_given_seed(self):
        ds = small_dataset()
        cfg = SessionConfig(n_peers=4, rounds=2, group_size=2, lr=1e-2, seed=9)
        a = run_session(blob_factory(), ds, cfg)
        b = run_session(blob_factory(), ds, cfg)
        np.testing.assert_array_equal(a.accuracy, b.accuracy)

    def test_dropout_schedule_with_threshold(self):
        ds = small_dataset()
        # Group 0 of a (3,3)-topology loses one follower in round 1.
        cfg = SessionConfig(
            n_peers=6, rounds=3, group_size=3, threshold=2, lr=1e-2, seed=7,
            dropout_schedule={1: {0: {1}}},
        )
        history = run_session(blob_factory(), ds, cfg)
        assert len(history) == 3
        assert np.isfinite(history.accuracy).all()

    def test_on_round_callback(self):
        seen = []
        cfg = SessionConfig(n_peers=4, rounds=2, group_size=2, lr=1e-2)
        run_session(blob_factory(), small_dataset(), cfg, on_round=seen.append)
        assert [m.round for m in seen] == [0, 1]


class TestSessionConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SessionConfig(aggregator="magic")
        with pytest.raises(ValueError):
            SessionConfig(n_peers=0)
        with pytest.raises(ValueError):
            SessionConfig(fraction=0.0)
        with pytest.raises(ValueError):
            SessionConfig(fraction=1.5)
        with pytest.raises(ValueError):
            SessionConfig(n_peers=5, group_size=9)

    def test_defaults_follow_paper(self):
        cfg = SessionConfig()
        assert cfg.batch_size == 50
        assert cfg.lr == 1e-4
