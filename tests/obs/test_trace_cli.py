"""End-to-end: ``python -m repro trace`` produces the three artifacts."""

import json

import pytest

from repro.__main__ import main
from repro.obs import read_events_jsonl, to_prometheus


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("trace")
    events = out / "events.jsonl"
    metrics = out / "metrics.prom"
    chrome = out / "trace.json"
    rc = main([
        "trace",
        "--events-out", str(events),
        "--metrics-out", str(metrics),
        "--trace-out", str(chrome),
    ])
    assert rc == 0
    return events, metrics, chrome


def test_event_log_covers_all_three_subsystems(artifacts):
    events_path, _, _ = artifacts
    events = [json.loads(line) for line in open(events_path)]
    names = {e["name"] for e in events}
    # SAC phases, a Raft election, and message drops all present.
    assert "sac.shares_out" in names
    assert "sac.complete" in names
    assert "raft.election.win" in names
    assert "net.drop" in names
    # The injected subgroup-leader crash and the dropout recovery fetch.
    assert "scenario.crash" in names
    assert "sac.recover.request" in names
    assert "sac.recover.fetched" in names

    summary = next(e for e in events if e["name"] == "scenario.summary")
    assert summary["bits_exact"] is True
    assert summary["wire_round_completed"] is True
    assert summary["dropout_round_completed"] is True
    assert summary["recovered_shares"]
    assert summary["elections_won"] >= 1
    assert summary["messages_dropped"] >= 1

    seqs = [e["seq"] for e in events]
    assert seqs == sorted(seqs)


def test_wire_round_bits_match_closed_form(artifacts):
    """The refactored accounting stays bit-for-bit equal to Eq. 4."""
    from repro.core.costs import two_layer_ft_cost_from_topology
    from repro.core.topology import Topology
    from repro.obs.scenario import MODEL_PARAMS

    events_path, _, _ = artifacts
    events = [json.loads(line) for line in open(events_path)]
    summary = next(e for e in events if e["name"] == "scenario.summary")
    topo = Topology.by_group_size(9, 3)
    assert summary["wire_round_bits"] == two_layer_ft_cost_from_topology(
        topo, 2, MODEL_PARAMS
    )


def test_prometheus_dump_has_per_subgroup_histograms(artifacts):
    _, metrics_path, _ = artifacts
    text = open(metrics_path).read()
    assert "# TYPE sac_round_ms summary" in text
    for group in (0, 1, 2):
        assert f'sac_round_ms_count{{group="{group}"}}' in text
    assert "# TYPE subgroup_sac_complete_ms summary" in text
    assert "# TYPE raft_elections_total counter" in text
    assert "# TYPE net_dropped_total counter" in text
    assert "# TYPE span_duration_ms summary" in text
    assert 'span_duration_ms{span="scenario.wire_round"' in text


def test_prometheus_dump_is_the_reduction_of_the_event_log(artifacts):
    events_path, metrics_path, _ = artifacts
    with open(metrics_path) as fh:
        assert to_prometheus(read_events_jsonl(events_path)) == fh.read()


def test_chrome_trace_artifact_is_valid(artifacts):
    _, _, chrome_path = artifacts
    doc = json.load(open(chrome_path))
    events = doc["traceEvents"]
    assert any(e["ph"] == "X" and e["name"] == "scenario.wire_round"
               for e in events)
    cats = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert {"raft", "sac", "net", "scenario"} <= cats


def test_global_pipeline_left_disabled(artifacts):
    from repro.obs import runtime

    assert not runtime.get().enabled


def test_bench_subcommand_and_its_flags_are_gone(capsys):
    """The in-program harness was retired: argparse rejects it cleanly."""
    with pytest.raises(SystemExit) as err:
        main(["bench"])
    assert err.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err

    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0
    listed = capsys.readouterr().out
    # "-tolerance" covers both the wall and the memory tolerance flag.
    for flag in ("--bench-out", "--smoke", "--repeats", "--warmup", "--only",
                 "--compare", "-tolerance"):
        assert flag not in listed
