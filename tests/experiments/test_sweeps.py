"""Tests for the session parameter-sweep utility."""

import numpy as np
import pytest

from repro.core import SessionConfig
from repro.data import synthetic_blobs
from repro.experiments.sweeps import sweep_sessions
from repro.nn import mlp_classifier

RNG = lambda seed=0: np.random.default_rng(seed)


@pytest.fixture(scope="module")
def workload():
    ds = synthetic_blobs(
        n_train=300, n_test=80, n_features=6, rng=RNG(0), separation=3.0
    )
    return ds, (lambda rng: mlp_classifier(6, rng=rng, hidden=(8,)))


BASE = SessionConfig(n_peers=6, rounds=3, group_size=3, lr=1e-2, seed=1)


class TestSweep:
    def test_grid_size(self, workload):
        ds, factory = workload
        points = sweep_sessions(
            factory, ds, BASE,
            axes={"group_size": [2, 3], "distribution": ["iid", "noniid-0"]},
        )
        assert len(points) == 4
        combos = {frozenset(p.params.items()) for p in points}
        expected = {
            frozenset({("group_size", g), ("distribution", d)})
            for g in (2, 3)
            for d in ("iid", "noniid-0")
        }
        assert combos == expected

    def test_infeasible_points_skipped(self, workload):
        ds, factory = workload
        points = sweep_sessions(
            factory, ds, BASE, axes={"group_size": [3, 99]}
        )
        assert len(points) == 1
        assert points[0].params["group_size"] == 3

    def test_unknown_field_rejected(self, workload):
        ds, factory = workload
        with pytest.raises(ValueError, match="unknown"):
            sweep_sessions(factory, ds, BASE, axes={"warp_speed": [1]})

    def test_results_populated(self, workload):
        ds, factory = workload
        points = sweep_sessions(factory, ds, BASE, axes={"group_size": [3]})
        p = points[0]
        assert 0.0 <= p.final_accuracy <= 1.0
        assert p.total_comm_bits > 0
        assert p.rounds == 3
