"""After-the-fact explanation: a JSONL log reads back into the events
that wrote it, the per-link table reduces a run's net events, and
``python -m repro explain`` reads what every command's artifact flags
wrote."""

import numpy as np
import pytest

from repro.__main__ import main
from repro.obs import runtime as _runtime
from repro.obs.causal import critical_paths_by_trace, link_table
from repro.obs.export import read_events_jsonl
from repro.obs.prof import profile_events
from repro.obs.scenario import run_trace_scenario
from repro.secure.protocol import run_sac_protocol


def _models(n, d=24, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=d) for _ in range(n)]


def _non_ack(obs, name):
    return sum(1 for e in obs.events_named(name)
               if e.fields.get("kind") != "net.ack")


def test_trace_scenario_log_round_trips(tmp_path):
    obs = _runtime.Observability(causal=True)
    with _runtime.observe(obs):
        run_trace_scenario(obs)
    back = read_events_jsonl(obs.write_events_jsonl(str(tmp_path / "all.jsonl")))
    assert [(e.seq, e.name) for e in back] == [(e.seq, e.name) for e in obs.events]
    assert profile_events(back).to_json() == profile_events(obs.events).to_json()
    paths = critical_paths_by_trace(back)
    assert paths and paths == critical_paths_by_trace(obs.events)


def test_every_campaign_round_is_its_own_trace():
    # Round seeds overlap across plans (plan seed + round index) and span
    # ids restart with every network, so a shared trace id would fold two
    # rounds into one causal DAG.
    from repro.campaign import run_campaign_matrix

    with _runtime.observe(causal=True) as obs:
        run_campaign_matrix(n_plans=2, rounds=2, raft=False)
    assert sorted(critical_paths_by_trace(obs.events)) == [
        "campaign:s0:r0", "campaign:s0:r1", "campaign:s1:r0", "campaign:s1:r1",
    ]


class TestLinkTable:
    def test_fixed_latency_round_measures_the_model(self):
        # Every delivered message on the default wire takes exactly the
        # FixedLatency 15 ms.
        with _runtime.observe(causal=True) as obs:
            run_sac_protocol(_models(4), k=3, seed=0)
        rows = link_table(obs.events)
        assert rows
        for row in rows.values():
            assert row.mean_latency_ms == row.max_latency_ms == 15.0
            assert row.loss_rate == 0.0

    def test_lossy_reliable_round_counts_drops_and_retransmits(self):
        with _runtime.observe(causal=True) as obs:
            result = run_sac_protocol(
                _models(6), k=4, seed=0, loss_rate=0.25,
                transport="reliable",
            )
        assert result.outcome.ok
        rows = link_table(obs.events).values()
        # The table leaves ACK frames out, so compare against the non-ACK
        # event counts (result.drops includes ACKs).
        assert sum(r.dropped for r in rows) == _non_ack(obs, "net.drop")
        assert sum(r.retransmits for r in rows) \
            == _non_ack(obs, "net.retransmit")
        assert result.drops >= _non_ack(obs, "net.drop") > 0
        # Latency is logical: send -> first delivery of the span, so a
        # dropped first copy shows up as wire latency + the RTO wait.
        latencies = [lat for r in rows for lat in r.latencies_ms]
        assert min(latencies) == 15.0
        assert max(latencies) > 15.0  # at least one retransmitted frame

    def test_without_causal_only_counts_accumulate(self):
        with _runtime.observe() as obs:
            run_sac_protocol(_models(4), k=3, seed=0)
        rows = link_table(obs.events)
        assert rows
        for row in rows.values():
            assert row.delivered > 0
            assert row.sends == 0 and row.mean_latency_ms is None

    def test_ack_frames_are_excluded(self):
        with _runtime.observe(causal=True) as obs:
            run_sac_protocol(_models(4), k=3, seed=0, transport="reliable")
        delivered = obs.events_named("net.deliver")
        acks = [e for e in delivered if e.fields.get("kind") == "net.ack"]
        assert acks  # ACKs double the traffic ...
        rows = link_table(obs.events).values()
        assert sum(r.delivered for r in rows) == len(delivered) - len(acks)
        # ... and add no latency sample either.
        assert sum(len(r.latencies_ms) for r in rows) \
            == _non_ack(obs, "net.send")


class TestExplainCli:
    @pytest.mark.parametrize("argv", [
        ["prof"],
        ["xlayer", "--peers", "100", "--depth", "2"],
        ["chaos", "--plans", "1"],
        ["campaign", "--rounds", "2", "--plans", "1", "--no-raft"],
    ])
    def test_every_command_writes_a_log_explain_reads(
        self, argv, tmp_path, capsys,
    ):
        log = tmp_path / "events.jsonl"
        assert main([*argv, "--events-out", str(log)]) == 0
        assert log.stat().st_size > 0
        capsys.readouterr()
        assert main(["explain", str(log)]) == 0
        out = capsys.readouterr().out
        assert "slowest links" in out and "critical paths:" in out

    @pytest.mark.parametrize("argv", [
        ["campaign", "--rounds", "2", "--plans", "1", "--no-raft"],
        ["chaos", "--plans", "1"],
    ])
    def test_capture_leaves_the_printed_result(self, argv, tmp_path, capsys):
        # The campaign fingerprint and the chaos matrix; the one line the
        # capture adds is where the log went.
        def result(extra):
            assert main([*argv, *extra]) == 0
            return [ln for ln in capsys.readouterr().out.splitlines()
                    if not ln.startswith("[repro] events  -> ")]

        assert result([]) == result([
            "--events-out", str(tmp_path / "c.jsonl"),
            "--incident-dir", str(tmp_path / "incidents"),
        ])

    def test_options_may_come_before_the_path(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        assert main(["trace", "--events-out", str(log),
                     "--metrics-out", str(tmp_path / "m.prom"),
                     "--trace-out", str(tmp_path / "t.json")]) == 0
        capsys.readouterr()
        assert main(["explain", "--top", "2", str(log)]) == 0
        before = capsys.readouterr().out
        assert main(["explain", str(log), "--top", "2"]) == 0
        assert capsys.readouterr().out == before

    def test_explain_reads_an_incident_directory(self, tmp_path, capsys):
        # One chaos plan ends a SAC round unrecoverable: a typed failure
        # the flight recorder dumps.
        incidents = tmp_path / "incidents"
        assert main(["chaos", "--plans", "1",
                     "--incident-dir", str(incidents)]) == 0
        dumps = sorted(incidents.iterdir())
        assert dumps
        capsys.readouterr()
        assert main(["explain", str(dumps[0])]) == 0
        assert capsys.readouterr().out.startswith(
            "incident trigger: round.complete")

    @pytest.mark.parametrize("case", ["missing", "no_log", "truncated"])
    def test_unreadable_path_exits_2_with_one_line(
        self, case, tmp_path, capsys,
    ):
        path = tmp_path / "events.jsonl"
        if case == "no_log":
            path = tmp_path
        elif case == "truncated":
            path.write_text('{"seq": 0, "name": "a", "t_ms": 1.0}\n'
                            '{"seq": 1, "name": "b", "t_')
        assert main(["explain", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err
