"""Tests for the report generator and the planner/report CLI commands."""

import os

import pytest

from repro.__main__ import main
from repro.experiments.paper_settings import ARTEFACTS
from repro.experiments.report import generate_report, write_report


class TestReport:
    @pytest.fixture(scope="class")
    def report(self):
        return generate_report(rounds=2, trials=2, peers=4)

    @pytest.fixture(scope="class")
    def report_text(self, report):
        return report[0]

    def test_all_sections_present(self, report_text):
        for heading in (
            "Table I", "Figs. 6-7", "Figs. 8-9", "Fig. 10", "Fig. 11",
            "Fig. 12", "Fig. 13", "Fig. 14", "X-layer",
        ):
            assert heading in report_text

    def test_headline_numbers_present(self, report_text):
        assert "7.12" in report_text    # Fig. 13 m=6
        assert "10.36x" in report_text  # Fig. 14 ratio

    def test_one_paper_measured_line_per_manifest_row(self, report):
        text, table = report
        rows = table.splitlines()[1:]
        # Every artefact id is two words ("Fig. 10", "Sec. VII-D").
        assert [" ".join(r.split()[:2]) for r in rows] == list(ARTEFACTS)
        assert table in text
        for row, line in zip(ARTEFACTS.values(), rows):
            for name, value in row.paper.items():
                assert f"{name}: {value:.5g} / " in line
            if row.band:
                assert "in band" in line or "OUT" in line
        # The closed-form rows do not depend on the run's scale.
        for figure in ("Fig. 13", "Fig. 14", "Eq. 10"):
            assert f"  {figure:<11}in band " in table

    def test_peers_reach_both_fl_runners(self, monkeypatch):
        from repro.experiments import report as report_mod

        class Recorded(Exception):
            pass

        seen = {}

        def fig6_fig7(**kw):
            seen["fig6_fig7"] = kw["n_peers"]
            return []

        def fig8_fig9(**kw):
            seen["fig8_fig9"] = kw["n_peers"]
            raise Recorded  # the rest of the report is not under test

        monkeypatch.setattr(report_mod, "run_fig6_fig7", fig6_fig7)
        monkeypatch.setattr(report_mod, "run_fig8_fig9", fig8_fig9)
        with pytest.raises(Recorded):
            generate_report(rounds=1, trials=1, peers=4)
        assert seen == {"fig6_fig7": 4, "fig8_fig9": 4}

    def test_write_report(self, tmp_path):
        path = str(tmp_path / "r.md")
        table = write_report(path, rounds=2, trials=2, peers=4)
        with open(path) as fh:
            text = fh.read()
        assert text.startswith("# repro")
        assert table in text


class TestCliCommands:
    def test_plan_command(self, capsys):
        assert main(["plan", "--plan-peers", "30"]) == 0
        out = capsys.readouterr().out
        assert "10.36x" in out
        assert "Feasible plans" in out

    def test_plan_with_bandwidth(self, capsys):
        assert main(
            ["plan", "--plan-peers", "15", "--plan-bandwidth", "1e8"]
        ) == 0
        assert "latency" in capsys.readouterr().out

    def test_report_command(self, capsys, tmp_path):
        out_path = str(tmp_path / "report.md")
        assert main(
            ["report", "--out", out_path, "--rounds", "2", "--trials", "2",
             "--peers", "4"]
        ) == 0
        assert os.path.exists(out_path)
        out = capsys.readouterr().out
        assert out.startswith("Paper against measured")
        rows = out.splitlines()[1:len(ARTEFACTS) + 1]
        assert [" ".join(r.split()[:2]) for r in rows] == list(ARTEFACTS)
