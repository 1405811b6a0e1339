"""Parallel subgroup execution must be bit-identical to sequential.

The :mod:`repro.par` determinism contract: ``parallel="threads"`` and
``parallel="process"`` change only *wall* time — every computed value
(averages, finish times, traffic totals, observability stream) equals
the ``"off"`` path exactly.  These tests assert that for the wire round
(both share codecs, with and without mid-round crashes — including a
forced Alg. 4 replica recovery under ``process`` and a dropout no mode
can recover, which all must grade alike).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import check_liveness
from repro.core.topology import Topology
from repro.core.wire_round import run_two_layer_wire_round
from repro.obs import runtime as _runtime
from repro.par import (
    PARALLEL_MODES,
    SubgroupTask,
    check_parallel_mode,
    run_jobs,
    run_subgroup_round,
)

RNG = lambda seed=0: np.random.default_rng(seed)


def _models(topo, seed, d=24):
    rng = RNG(seed)
    return [rng.normal(size=d) for _ in range(topo.n_peers)]


def _run(topo, models, mode, **kw):
    obs = _runtime.Observability()
    with _runtime.observe(obs):
        result = run_two_layer_wire_round(
            topo, models, k=2, seed=kw.pop("seed", 0), parallel=mode, **kw
        )
    return result, obs


def _event_set(obs):
    """Events as an order-insensitive multiset, wall fields excluded."""
    return sorted(
        (e.name, e.t_ms, e.node, e.dur_ms,
         tuple(sorted((k, repr(v)) for k, v in e.fields.items()
                      if not k.startswith("wall"))))
        for e in obs.events
    )


def _assert_identical(a, b):
    assert b.outcome.ok == a.outcome.ok
    assert np.array_equal(b.average, a.average)
    assert b.finish_time_ms == a.finish_time_ms
    assert b.bits_sent == a.bits_sent
    assert b.messages_sent == a.messages_sent
    assert b.bits_by_kind == a.bits_by_kind
    assert b.recovered_shares == a.recovered_shares


class TestWireRoundParity:
    @given(seed=st.integers(0, 2**16), codec=st.sampled_from(["dense", "seed"]))
    @settings(max_examples=10, deadline=None)
    def test_threads_bitwise_identical(self, seed, codec):
        topo = Topology.by_group_size(9, 3)
        models = _models(topo, seed)
        r_off, o_off = _run(topo, models, "off", seed=seed, share_codec=codec)
        r_thr, o_thr = _run(topo, models, "threads", seed=seed,
                            share_codec=codec)
        _assert_identical(r_off, r_thr)
        assert _event_set(o_thr) == _event_set(o_off)

    def test_process_bitwise_identical(self):
        topo = Topology.by_group_count(12, 4)
        models = _models(topo, 5)
        r_off, o_off = _run(topo, models, "off", seed=5)
        r_prc, o_prc = _run(topo, models, "process", seed=5)
        _assert_identical(r_off, r_prc)
        assert _event_set(o_prc) == _event_set(o_off)

    def test_leader_sets_and_sim_metrics_match(self):
        topo = Topology.by_group_size(12, 4)
        models = _models(topo, 9)
        for mode in ("threads", "process"):
            r_off, o_off = _run(topo, models, "off", seed=9)
            r_par, o_par = _run(topo, models, mode, seed=9)
            _assert_identical(r_off, r_par)
            done = lambda o: sorted(
                (e.fields["group"], e.node)
                for e in o.events if e.name == "round.subgroup_done"
            )
            # Same leaders report the same subgroups done at the same time.
            assert done(o_par) == done(o_off)

    def test_dropout_recovery_under_process(self):
        # Group size 4, k=3 (n < 2k): crash one non-leader at t=20 ms —
        # after its share bundles landed, before its subtotal arrives —
        # forcing the Alg. 4 lines 17-18 replica fetch inside a worker
        # process.
        topo = Topology.by_group_size(8, 4)
        models = _models(topo, 11)
        victim = topo.groups[1][2]
        crash = {victim: 20.0}
        results = {}
        recovered = {}
        for mode in ("off", "process", "threads"):
            obs = _runtime.Observability()
            with _runtime.observe(obs):
                results[mode] = run_two_layer_wire_round(
                    topo, models, k=3, seed=11, parallel=mode, crash_at=crash
                )
            recovered[mode] = [
                tuple(e.fields.get("recovered", ()))
                for e in obs.events if e.name == "sac.complete"
            ]
        assert results["off"].outcome.ok
        # The crashed peer's subtotal share really was recovered.
        assert any(rec for rec in recovered["off"])
        assert results["off"].recovered_shares == (victim,)
        for mode in ("process", "threads"):
            _assert_identical(results["off"], results[mode])
            assert sorted(recovered[mode]) == sorted(recovered["off"])

    @pytest.mark.parametrize("crash_ms, lost", [
        (1.0, 0),   # before the share bundles land
        (20.0, 3),  # after: every holder of index 3 is among the victims
    ])
    def test_unrecoverable_dropout_grades_alike(self, crash_ms, lost):
        # 3-of-5 FT-SAC tolerates two dropouts; three non-leaders of
        # group 1 go.  The parallel fork used to have no liveness watch,
        # so it idled to the round timeout and reported a hang where the
        # sequential round names the lost share index.
        topo = Topology.by_group_size(15, 5)
        models = _models(topo, 13)
        victims = [p for p in topo.groups[1] if p != topo.leaders[1]][:3]
        results, events = {}, {}
        for mode in PARALLEL_MODES:
            obs = _runtime.Observability()
            with _runtime.observe(obs):
                results[mode] = run_two_layer_wire_round(
                    topo, models, k=3, seed=13, parallel=mode,
                    crash_at={p: crash_ms for p in victims},
                )
            events[mode] = _event_set(obs)
        off = results["off"]
        assert off.outcome.status == "unrecoverable_dropout"
        assert off.outcome.reason.startswith(
            f"subgroup 1: share index {lost} is lost"
        )
        for mode, result in results.items():
            assert check_liveness(result).ok, (mode, result.outcome)
            assert result.outcome == off.outcome, mode
            assert result.average is None and result.finish_time_ms is None
            assert result.end_time_ms == off.end_time_ms == 100.0
            assert result.bits_sent == off.bits_sent
            assert result.messages_sent == off.messages_sent
            assert result.bits_by_kind == off.bits_by_kind
            assert result.recovered_shares == off.recovered_shares
            assert events[mode] == events["off"], mode

    def test_crashed_leader_rejected(self):
        topo = Topology.by_group_size(9, 3)
        with pytest.raises(ValueError, match="leader"):
            run_two_layer_wire_round(
                topo, _models(topo, 0), crash_at={topo.leaders[1]: 10.0}
            )

    def test_serialize_uplink_incompatible_with_parallel(self):
        topo = Topology.by_group_size(6, 3)
        with pytest.raises(ValueError, match="serialize_uplink"):
            run_two_layer_wire_round(
                topo, _models(topo, 0), parallel="threads",
                serialize_uplink=True,
            )

    def test_unknown_mode_rejected(self):
        assert check_parallel_mode("off") == "off"
        with pytest.raises(ValueError, match="parallel mode"):
            check_parallel_mode("fork")
        topo = Topology.by_group_size(6, 3)
        with pytest.raises(ValueError):
            run_two_layer_wire_round(topo, _models(topo, 0), parallel="no")


class TestRunJobs:
    def test_off_and_single_item_run_inline(self):
        assert run_jobs(lambda x: x * 2, [1, 2, 3], "off") == [2, 4, 6]
        assert run_jobs(lambda x: x + 1, [41], "threads") == [42]

    def test_results_in_item_order(self):
        tasks = list(range(8))
        assert run_jobs(lambda x: x * x, tasks, "threads") == [
            x * x for x in tasks
        ]

    def test_worker_events_merge_in_job_order(self):
        topo = Topology.by_group_size(9, 3)
        models = _models(topo, 4)
        rng = RNG(4)
        tasks = []
        for gi, group in enumerate(topo.groups):
            tasks.append(SubgroupTask(
                group=gi, members=tuple(group), leader=topo.leaders[gi],
                k=2,
                models=tuple(models[p] for p in group),
                peer_seeds=tuple(int(rng.integers(2**63)) for _ in group),
                share_codec="dense", delay_ms=15.0, bandwidth_bps=None,
                subtotal_timeout_ms=100.0, round_timeout_ms=60_000.0,
            ))
        obs = _runtime.Observability()
        with _runtime.observe(obs):
            outcomes = run_jobs(run_subgroup_round, tasks, "threads")
        for outcome, group in zip(outcomes, topo.groups):  # item order
            np.testing.assert_allclose(
                outcome.average, np.mean([models[p] for p in group], axis=0)
            )
        groups = [e.fields["group"] for e in obs.events
                  if e.name == "sac.complete"]
        assert groups == sorted(groups)  # merged in subgroup order
