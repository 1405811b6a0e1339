"""Paper-scale smoke tests (opt-in: set REPRO_SLOW=1).

These run the real evaluation shapes at meaningful (though not full
1000x) scale — a middle ground between the fast defaults and the full
paper runs described in docs/reproducing.md.
"""

import os

import numpy as np
import pytest

from repro.experiments.paper_settings import ARTEFACTS

FIG6, FIG10 = ARTEFACTS["Fig. 6"], ARTEFACTS["Fig. 10"]

slow = pytest.mark.skipif(
    not os.environ.get("REPRO_SLOW"),
    reason="paper-scale smoke tests; set REPRO_SLOW=1 to run",
)


class TestPaperSettings:
    """Always-on checks that the presets match the paper text."""

    def test_fig6_setting(self):
        setting = FIG6.setting
        assert setting["n_peers"] == 10
        assert setting["rounds"] == 1000
        assert setting["lr"] == 1e-4
        assert setting["batch_size"] == 50
        assert 10 in setting["group_sizes"]  # n = N baseline

    def test_fig10_setting(self):
        setting = FIG10.setting
        assert setting["n_peers"] == 25
        assert setting["group_count"] == 5
        assert setting["delay_ms"] == 15.0
        assert setting["trials"] == 1000

    def test_headlines_present(self):
        # One paper mean, and one band, per timeout range.
        assert len(FIG10.paper) == len(FIG10.band) == len(
            FIG10.setting["timeout_bases_ms"]) == 4


@slow
class TestPaperScaleSmoke:
    def test_raft_recovery_at_200_trials(self):
        from repro.experiments import run_fig10

        stats = run_fig10(trials=200)
        for s in stats:
            assert abs(s.mean_ms - s.paper_mean_ms) / s.paper_mean_ms < 0.15

    def test_fl_200_rounds_relationships_hold(self):
        from repro.experiments import run_fig6_fig7

        runs = run_fig6_fig7(n_peers=10, rounds=200, group_sizes=(3, 5))
        by = {(r.label, r.distribution): r for r in runs}
        for dist in ("iid", "noniid-5", "noniid-0"):
            np.testing.assert_allclose(
                by[("two-layer n=3", dist)].history.accuracy,
                by[("baseline n=N", dist)].history.accuracy,
                atol=1e-6,
            )
        assert (
            by[("two-layer n=3", "iid")].final_accuracy
            > by[("two-layer n=3", "noniid-0")].final_accuracy
        )

    def test_cnn_session_short(self):
        from repro.core import SessionConfig, run_session
        from repro.data import synthetic_cifar10
        from repro.nn import small_cnn

        ds = synthetic_cifar10(n_train=2000, n_test=400, rng=np.random.default_rng(0))
        cfg = SessionConfig(
            n_peers=10, rounds=10, group_size=3, threshold=2, lr=1e-3, seed=0
        )
        history = run_session(
            lambda rng: small_cnn(rng, in_channels=3, in_hw=32), ds, cfg
        )
        assert history.accuracy[-1] > history.accuracy[0]
