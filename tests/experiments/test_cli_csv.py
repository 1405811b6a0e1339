"""Tests for the CLI runner and CSV export."""

import csv
import os
import subprocess
import sys

import pytest

import repro
from repro.__main__ import main
from repro.experiments import run_fig10, run_fig13, run_fig14, run_fig6_fig7
from repro.experiments.csv_export import (
    write_cost_points,
    write_fl_runs,
    write_recovery_stats,
)


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestCsvExport:
    def test_fl_runs_csv(self, tmp_path):
        runs = run_fig6_fig7(
            n_peers=4, rounds=3, group_sizes=(2,), distributions=("iid",)
        )
        path = write_fl_runs(runs, str(tmp_path / "fl.csv"))
        rows = read_csv(path)
        assert rows[0][0] == "label"
        assert len(rows) == 1 + 2 * 3  # two runs x three rounds
        assert rows[1][0] == "two-layer n=2"

    def test_recovery_csv(self, tmp_path):
        stats = run_fig10(trials=2, timeout_bases=(50.0,))
        path = write_recovery_stats(stats, str(tmp_path / "rec.csv"))
        rows = read_csv(path)
        assert rows[0][0] == "timeout_base_ms"
        assert len(rows) == 2
        assert float(rows[1][1]) > 0

    def test_cost_csv_series(self, tmp_path):
        path = write_cost_points(run_fig14(), str(tmp_path / "costs.csv"))
        rows = read_csv(path)
        assert rows[0] == ["series", "x", "gigabits"]
        labels = {r[0] for r in rows[1:]}
        assert "baseline (n=N)" in labels

    def test_cost_csv_flat_list(self, tmp_path):
        path = write_cost_points(run_fig13(), str(tmp_path / "fig13.csv"))
        rows = read_csv(path)
        assert len(rows) == 31  # header + m=1..30

    def test_creates_directories(self, tmp_path):
        nested = tmp_path / "a" / "b" / "c.csv"
        write_cost_points(run_fig13(), str(nested))
        assert nested.exists()


class TestCli:
    def test_env(self, capsys):
        assert main(["env"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out

    def test_fig13(self, capsys):
        assert main(["fig13"]) == 0
        assert "7.12" in capsys.readouterr().out

    def test_fig14(self, capsys):
        assert main(["fig14"]) == 0
        assert "10.36x" in capsys.readouterr().out

    def test_multilayer(self, capsys):
        assert main(["multilayer"]) == 0
        assert "X-layer" in capsys.readouterr().out

    def test_fig6_small(self, capsys):
        assert main(["fig6", "--rounds", "2", "--peers", "4"]) == 0
        assert "final test accuracy" in capsys.readouterr().out

    def test_fig10_small_with_csv(self, capsys, tmp_path):
        assert main(
            ["fig10", "--trials", "2", "--csv", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "Fig. 10" in out
        assert (tmp_path / "fig10_recovery.csv").exists()

    def test_fig8_with_csv(self, capsys, tmp_path):
        assert main(
            ["fig8", "--rounds", "2", "--peers", "4", "--csv", str(tmp_path)]
        ) == 0
        assert (tmp_path / "fig8_curves.csv").exists()

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    @pytest.mark.parametrize("argv", [
        ["campaign", "--rounds", "0", "--plans", "1", "--no-raft"],
        ["campaign", "--peers", "0", "--plans", "1", "--no-raft"],
        ["campaign", "--plans", "0"],
        ["xlayer", "--peers", "0", "--depth", "2"],
        ["xlayer", "--dim", "0", "--peers", "10", "--depth", "2"],
        ["xlayer", "--max-attempts", "0", "--loss", "0.1", "--depth", "2"],
        ["fig10", "--trials", "0"],
        ["chaos", "--scale", "0"],
        ["fig6", "--rounds", "-3", "--peers", "4"],
        ["prof", "--top", "0"],
        ["explain", "events.jsonl", "--top", "-2"],
    ])
    def test_count_flags_reject_zero_and_negatives(self, argv):
        # An explicit 0 used to fall back to the default count
        # (``args.rounds or 10``) and the run went ahead.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["xlayer", "--peers", "50", "--depth", "2", "--max-attempts", "1"],
        ["xlayer", "--loss", "1.5", "--depth", "2"],
        ["xlayer", "--loss", "-0.1", "--depth", "2"],
        ["chaos", "--scale", "50", "--loss", "1.0"],
        ["xlayer", "--delay-ms", "-5", "--depth", "2"],
        ["chaos", "--profiles", "bogus"],
        ["chaos", "--layers", "bogus"],
        ["campaign", "--profiles", "nope"],
        ["fig13", "stray/events.jsonl"],  # only 'explain' takes a path
        ["explain"],  # ... and it needs one
        ["plan", "--plan-peers", "2"],
        ["plan", "--plan-dropouts", "-1"],
        ["plan", "--plan-bandwidth", "-5"],
        ["xlayer", "--peers", "1"],  # no tree has fewer than 2 peers
        ["chaos", "--scale", "1"],
        ["xlayer", "--delay-ms", "inf"],  # a round that never finishes
    ])
    def test_bad_flag_values_are_usage_errors(self, argv, capsys):
        # Each used to reach the library and exit 1 with a traceback.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_prof_resources_report(self, capsys):
        assert main(["prof", "--resources"]) == 0
        out = capsys.readouterr().out
        assert "resource profile (MB):" in out
        assert "telemetry total" in out
        assert "rollup" not in out

    @pytest.mark.parametrize("argv", [
        ["xlayer", "--depth", "0", "--peers", "10"],
        ["xlayer", "--depth", "-1"],
        ["chaos", "--scale", "50", "--depth", "0"],
    ])
    def test_treeless_depth_exits_instead_of_hanging(self, argv):
        # A tree with no layers never reaches the peer target, so the
        # smallest-n search used to spin forever.
        src = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv], capture_output=True,
            timeout=30, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode != 0

    def test_closed_pipe_exits_without_traceback(self):
        # 'plan' prints ~14 KB; into a one-page pipe the writer blocks
        # until the reader, gone after one line, breaks the pipe.
        src = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "plan", "--plan-peers", "1000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0,
            pipesize=4096, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.stdout.readline().startswith(b"Feasible plans")
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert b"Traceback" not in err
