"""The bench resource pass: per-scenario memory measurements ride in a
``resources`` block outside the sim fingerprint, the compare gate has
its own memory tolerance, and the obs_scale scenario pins the
sublinear-telemetry claim."""

import copy

import pytest

from repro.obs import bench

pytestmark = pytest.mark.bench_smoke


@pytest.fixture(scope="module")
def artifact():
    return bench.run_suite(
        smoke=True, seed=0, repeats=1, warmup=0,
        only=["sac_round", "failover"],
    )


class TestResourcesBlock:
    def test_scenarios_carry_resources(self, artifact):
        for sc in artifact["scenarios"]:
            res = sc["resources"]
            assert res["alloc_peak_bytes"] > 0
            assert "alloc_delta_bytes" in res
            assert "peak_rss_bytes" in res
        assert bench.validate_artifact(artifact) == []

    def test_resources_are_not_fingerprinted(self, artifact):
        mutated = copy.deepcopy(artifact)
        for sc in mutated["scenarios"]:
            sc["resources"]["alloc_peak_bytes"] *= 17
        assert bench.sim_fingerprint(mutated) \
            == bench.sim_fingerprint(artifact)

    def test_resources_block_is_optional_in_schema(self, artifact):
        trimmed = copy.deepcopy(artifact)
        for sc in trimmed["scenarios"]:
            del sc["resources"]
        assert bench.validate_artifact(trimmed) == []

    def test_malformed_resources_rejected(self, artifact):
        bad = copy.deepcopy(artifact)
        bad["scenarios"][0]["resources"] = {"alloc_peak_bytes": "lots"}
        assert bench.validate_artifact(bad)

    def test_resources_pass_can_be_disabled(self):
        art = bench.run_suite(
            smoke=True, seed=0, repeats=1, warmup=0,
            only=["sac_round"], resources=False,
        )
        assert "resources" not in art["scenarios"][0]
        assert bench.validate_artifact(art) == []


class TestMemoryGate:
    def test_self_compare_passes(self, artifact):
        ok, deltas = bench.compare_artifacts(artifact, artifact)
        assert ok, bench.format_compare_report(ok, deltas)

    def test_memory_regression_fails_the_gate(self, artifact):
        bloated = copy.deepcopy(artifact)
        for sc in bloated["scenarios"]:
            sc["resources"]["alloc_peak_bytes"] *= 3
        ok, deltas = bench.compare_artifacts(
            artifact, bloated, mem_tolerance=2.0
        )
        assert not ok
        report = bench.format_compare_report(
            ok, deltas, mem_tolerance=2.0
        )
        assert "FAIL" in report
        assert "more peak memory" in report

    def test_tolerance_widens_the_gate(self, artifact):
        bloated = copy.deepcopy(artifact)
        for sc in bloated["scenarios"]:
            sc["resources"]["alloc_peak_bytes"] *= 3
        ok, _ = bench.compare_artifacts(
            artifact, bloated, mem_tolerance=4.0
        )
        assert ok

    def test_missing_baseline_is_informational(self, artifact):
        old = copy.deepcopy(artifact)
        for sc in old["scenarios"]:
            del sc["resources"]
        ok, deltas = bench.compare_artifacts(old, artifact)
        assert ok
        report = bench.format_compare_report(ok, deltas)
        assert "no memory baseline" in report

    def test_mem_tolerance_validation(self, artifact):
        with pytest.raises(ValueError):
            bench.compare_artifacts(artifact, artifact, mem_tolerance=0.5)


class TestObsScaleScenario:
    def test_obs_scale_is_in_both_suites(self):
        for smoke in (True, False):
            ids = [s.id for s in bench.build_suite(smoke=smoke, seed=0)]
            assert "obs_scale" in ids

    def test_obs_scale_pins_sublinear_telemetry(self, smoke_artifact):
        # The (smoke-sized) scenario's record in the shared run: the
        # sublinearity assertion is inside the scenario fn, and the sim
        # block carries the deterministic telemetry byte counts the gate
        # compares.
        (sc,) = [
            s for s in smoke_artifact["scenarios"] if s["id"] == "obs_scale"
        ]
        sim = sc["sim"]
        assert sc["params"]["n"] >= 2000
        peer_ratio = sc["params"]["n"] / sc["params"]["baseline_n"]
        byte_ratio = sim["telemetry_bytes"] / sim["telemetry_bytes_baseline"]
        assert 1.0 < byte_ratio < peer_ratio
        assert sim["rollup_events_seen"] > sc["params"]["n"]
