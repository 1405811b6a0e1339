"""Smoke-run the canonical suite; validate every artifact against the
schema; assert same-seed sim metrics are bit-identical across runs."""

import pytest

from repro.obs import bench

pytestmark = pytest.mark.bench_smoke


def test_artifact_is_schema_valid(smoke_artifact):
    assert bench.validate_artifact(smoke_artifact) == []
    assert smoke_artifact["schema"] == bench.SCHEMA
    assert smoke_artifact["mode"] == "smoke"


def test_suite_covers_canonical_scenarios(smoke_artifact):
    ids = [sc["id"] for sc in smoke_artifact["scenarios"]]
    assert len(ids) >= 5
    assert "sac_round" in ids
    assert "ftsac_dropout" in ids
    assert "failover" in ids
    assert "nn_epoch" in ids
    assert any(i.startswith("two_layer_") for i in ids)


def test_every_scenario_has_profiled_phases(smoke_artifact):
    for sc in smoke_artifact["scenarios"]:
        assert sc["phases"], f"{sc['id']} has no profiled phases"
        for ph in sc["phases"]:
            assert {"total_ms", "self_ms", "bits", "messages"} <= set(ph)
    # The dropout scenario must actually exercise the recovery path...
    ftsac = next(s for s in smoke_artifact["scenarios"]
                 if s["id"] == "ftsac_dropout")
    assert ftsac["sim"]["recovered_shares"] == ftsac["sim"]["dropouts"] > 0
    # ... and at least one protocol phase carries straggler stats.
    assert any(
        ph.get("straggler") is not None
        for sc in smoke_artifact["scenarios"] for ph in sc["phases"]
    )


def test_two_layer_phases_nest_sac_under_round(smoke_artifact):
    two_layer = next(s for s in smoke_artifact["scenarios"]
                     if s["id"].startswith("two_layer_"))
    paths = {tuple(ph["path"]) for ph in two_layer["phases"]}
    assert ("round.two_layer",) in paths
    assert ("round.two_layer", "sac.complete") in paths


def test_wall_stats_present_but_not_fingerprinted(smoke_artifact):
    for sc in smoke_artifact["scenarios"]:
        wall = sc["wall_ms"]
        assert wall["min"] <= wall["median"] <= wall["max"]
    fingerprint = bench.sim_fingerprint(smoke_artifact)
    assert "wall" not in fingerprint
    assert "created_wall_s" not in fingerprint


def test_same_seed_runs_are_bit_identical_sim_side(smoke_artifact):
    """A second smoke run with the shared artifact's seed: identical sim
    metrics."""
    first = smoke_artifact
    second = bench.run_suite(
        smoke=True, seed=first["seed"], repeats=1, warmup=0
    )
    assert bench.sim_fingerprint(first) == bench.sim_fingerprint(second)
    # The fingerprint covers sim/params/phases; spot-check raw equality
    # of the sim blocks too (bit-identical floats, not approx).
    for a, b in zip(first["scenarios"], second["scenarios"]):
        assert a["id"] == b["id"]
        assert a["sim"] == b["sim"]


def test_different_seeds_change_the_fingerprint():
    a = bench.run_suite(smoke=True, seed=0, repeats=1, warmup=0,
                        only=["nn_epoch"])
    b = bench.run_suite(smoke=True, seed=1, repeats=1, warmup=0,
                        only=["nn_epoch"])
    assert bench.sim_fingerprint(a) != bench.sim_fingerprint(b)


def test_self_compare_of_smoke_artifact_passes(smoke_artifact):
    ok, deltas = bench.compare_artifacts(smoke_artifact, smoke_artifact)
    assert ok, bench.format_compare_report(ok, deltas)


def test_global_pipeline_left_disabled_after_suite(smoke_artifact):
    from repro.obs import runtime

    assert not runtime.get().enabled
