"""Tests for the chaos campaign runner and the ``repro chaos`` CLI."""

import pytest

from repro.__main__ import main
from repro.chaos import (
    TrialReport,
    format_matrix,
    run_chaos_matrix,
    run_raft_trial,
    run_sac_trial,
    run_two_layer_trial,
)

pytestmark = pytest.mark.chaos


class TestTrials:
    def test_sac_trial_grades_a_plan(self):
        report = run_sac_trial(seed=1, profile="lossy")
        assert report.layer == "sac"
        assert report.profile == "lossy"
        assert report.status in ("pass", "degrade")
        assert "loss" in report.plan

    def test_two_layer_trial_grades_a_plan(self):
        report = run_two_layer_trial(seed=1, profile="stragglers")
        assert report.layer == "two_layer"
        assert report.status in ("pass", "degrade")

    def test_raft_trial_keeps_election_safety(self):
        report = run_raft_trial(seed=1, profile="crashes")
        assert report.layer == "raft"
        assert report.status in ("pass", "degrade")  # never a safety fail

    def test_trials_are_deterministic(self):
        a = run_sac_trial(seed=3, profile="mixed")
        b = run_sac_trial(seed=3, profile="mixed")
        assert a == b

    def test_unknown_profile_and_layer_rejected(self):
        with pytest.raises(ValueError, match="unknown profiles"):
            run_chaos_matrix(n_plans=1, profiles=["nope"])
        with pytest.raises(ValueError, match="unknown layers"):
            run_chaos_matrix(n_plans=1, layers=("sac", "bogus"))


class TestMatrix:
    def test_matrix_runs_every_layer_per_plan(self):
        reports = run_chaos_matrix(
            n_plans=2, layers=("sac", "two_layer"), profiles=["lossy"]
        )
        assert len(reports) == 4
        assert {r.layer for r in reports} == {"sac", "two_layer"}
        assert all(not r.failed for r in reports)

    def test_format_matrix_shows_totals_and_failures(self):
        reports = [
            TrialReport("sac", "lossy", 0, "loss(0.2)@0-100", "pass", "ok"),
            TrialReport("sac", "lossy", 1, "loss(0.3)@0-100", "fail",
                        "SAFETY: aggregate deviates"),
        ]
        text = format_matrix(reports)
        assert "1 pass / 0 degrade / 1 fail" in text
        assert "FAIL [sac/lossy seed=1]" in text


class TestCli:
    def test_chaos_cli_exits_zero_and_prints_matrix(self, capsys):
        rc = main(["chaos", "--plans", "2", "--layers", "sac",
                   "--profiles", "lossy,stragglers"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "totals:" in out
        assert "lossy" in out and "stragglers" in out

    def test_chaos_cli_exits_nonzero_on_safety_failure(self, monkeypatch, capsys):
        import repro.__main__ as entry

        def fake_matrix(**kw):
            return [TrialReport("sac", "lossy", 0, "x", "fail", "SAFETY: y")]

        monkeypatch.setattr(
            "repro.chaos.runner.run_chaos_matrix", fake_matrix
        )
        monkeypatch.setattr("repro.chaos.run_chaos_matrix", fake_matrix)
        rc = entry.main(["chaos", "--plans", "1"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["xlayer", "--loss", "0.5", "--transport", "fire_and_forget"],
        ["campaign", "--peers", "3"],
    ], ids=["xlayer-lossy-fire-and-forget", "campaign-too-few-peers"])
    def test_bad_flag_combination_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
