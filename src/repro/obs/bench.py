"""Canonical benchmark suite, BENCH artifact schema, and regression gate.

This module is the measurement backbone behind the ROADMAP's "fast as
the hardware allows" goal.  It provides three things:

1. **A canonical suite** of seeded scenarios (:func:`build_suite`):
   single SAC round, FT-SAC round with ``n-k`` mid-round dropouts, a
   two-layer round sweeping ``(n, m)``, a subgroup-leader failover, and
   one NN training epoch.  Each runs under a fresh observability
   pipeline and the phase profiler (:mod:`repro.obs.prof`).
2. **A versioned artifact schema** (``repro.bench/v1``): every BENCH
   JSON the repo emits — the suite's ``BENCH_suite.json``, the example
   scripts', the benchmark harness's — validates against
   :func:`validate_artifact` and is written by :func:`write_artifact`.
3. **A regression gate** (:func:`compare_artifacts`, surfaced as
   ``python -m repro bench --compare OLD NEW``): sim-side metrics
   (virtual time, bits, message counts, per-phase profile) are
   deterministic and compared *exactly*; wall-clock medians get a
   multiplicative tolerance.  Future perf PRs cite this tool for their
   before/after numbers.

Determinism contract: everything under a scenario's ``sim`` key and the
sim-side phase fields is a pure function of the seed — two runs must be
bit-identical (:func:`sim_fingerprint` extracts exactly that subset;
``tests/obs/test_bench_schema.py`` asserts it).  Wall-clock numbers
(``wall_ms`` blocks, ``wall_*`` phase fields) are measurements and are
excluded from the fingerprint.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np

from . import runtime as _runtime
from .logging import get_logger
from .prof import profile_events

log = get_logger("bench")

#: schema identifier embedded in (and required of) every BENCH artifact.
SCHEMA = "repro.bench/v1"
#: bumped whenever a scenario's workload definition changes meaning.
SUITE_VERSION = 1

#: sim-side phase fields (exact in comparisons / the fingerprint).
_PHASE_SIM_KEYS = (
    "path", "count", "total_ms", "self_ms", "bits", "messages", "dropped",
    "bits_by_kind", "straggler", "sim_clocked",
)
_PHASE_WALL_KEYS = ("wall_total_ms", "wall_self_ms")
_WALL_STAT_KEYS = ("repeats", "warmup", "min", "median", "mean", "max")


class BenchSchemaError(ValueError):
    """An artifact does not conform to the BENCH schema."""


# --------------------------------------------------------------------------
# scenarios
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """One seeded, named workload of the canonical suite."""

    id: str
    seed: int
    params: dict
    run: Callable[[dict, int], dict]


def _run_sac_round(params: dict, seed: int) -> dict:
    from ..secure.protocol import run_sac_protocol

    rng = np.random.default_rng(seed)
    models = [rng.normal(size=params["model_params"])
              for _ in range(params["n"])]
    result = run_sac_protocol(
        models, k=params["k"], seed=seed,
        share_codec=params.get("share_codec", "dense"),
    )
    assert result.outcome.ok
    return {
        "sim_time_ms": result.finish_time_ms,
        "bits": result.bits_sent,
        "messages": result.messages_sent,
        "recovered_shares": len(result.recovered_shares),
    }


def _run_ftsac_dropout(params: dict, seed: int) -> dict:
    from ..secure.protocol import run_sac_protocol
    from ..secure.replicated import shares_held_by

    n, k = params["n"], params["k"]
    # Crash the last n-k subtotal senders mid-flight (t=20ms: after
    # their share bundles landed, before their subtotals arrive), which
    # forces the Alg. 4 lines 17-18 replica fetch.  n < 2k guarantees a
    # surviving replica holder for every crashed primary.
    assert n < 2 * k, "need n < 2k so every crashed subtotal is recoverable"
    leader_holds = set(shares_held_by(0, n, k))
    senders = [p for p in range(1, n) if p not in leader_holds]
    crash_at = {p: 20.0 for p in senders[-(n - k):]}
    rng = np.random.default_rng(seed)
    models = [rng.normal(size=params["model_params"]) for _ in range(n)]
    result = run_sac_protocol(
        models, k=k, seed=seed, crash_at=crash_at,
        share_codec=params.get("share_codec", "dense"),
    )
    assert result.outcome.ok
    assert len(result.recovered_shares) == n - k
    return {
        "sim_time_ms": result.finish_time_ms,
        "bits": result.bits_sent,
        "messages": result.messages_sent,
        "dropouts": n - k,
        "recovered_shares": len(result.recovered_shares),
    }


def _run_sac_round_batched(params: dict, seed: int) -> dict:
    from ..secure.fault_tolerant import fault_tolerant_sac

    # The functional Alg. 4 round: same (n, k, d) workload as sac_round
    # but straight through the batched share kernels — the wall delta
    # against sac_round isolates the per-peer protocol/simulator overhead
    # from the share math itself.
    rng = np.random.default_rng(seed)
    models = [rng.normal(size=params["model_params"])
              for _ in range(params["n"])]
    obs = _runtime.OBS
    with obs.span("bench.sac_batched", n=params["n"], k=params["k"]):
        result = fault_tolerant_sac(
            models, k=params["k"], rng=np.random.default_rng(seed),
        )
    return {
        "bits": result.bits_sent,
        "messages": result.messages_sent,
        "n_peers": result.n_peers,
    }


def _run_sac_round_lossy(params: dict, seed: int) -> dict:
    from ..secure.protocol import run_sac_protocol

    # sac_round's workload over a lossy wire with the reliable transport:
    # the deltas against sac_round price the ACK/retransmit machinery
    # (bits, messages, sim time) at the given loss rate.
    rng = np.random.default_rng(seed)
    models = [rng.normal(size=params["model_params"])
              for _ in range(params["n"])]
    result = run_sac_protocol(
        models, k=params["k"], seed=seed,
        loss_rate=params["loss_rate"], transport="reliable",
    )
    assert result.outcome.ok
    return {
        "sim_time_ms": result.finish_time_ms,
        "bits": result.bits_sent,
        "messages": result.messages_sent,
        "retransmits": result.retransmits,
        "drops": result.drops,
    }


def _run_two_layer_chaos(params: dict, seed: int) -> dict:
    from ..chaos import Crash, FaultSchedule, LossWindow, Recover
    from ..core.topology import Topology
    from ..core.wire_round import run_two_layer_wire_round

    # A fixed crash+recover+loss schedule against one follower, under the
    # reliable transport: the round must still complete (the recovered
    # peer's held frames resend), and the sim metrics price a full
    # chaos-tolerant round against the fault-free two_layer rows.
    topo = Topology.by_group_count(params["n"], params["m"])
    k = min(params["k"], min(topo.group_sizes))
    victim = next(p for p in range(topo.n_peers) if p not in topo.leaders)
    schedule = FaultSchedule([
        Crash(params["crash_ms"], victim),
        Recover(params["recover_ms"], victim),
        LossWindow(0.0, params["lossy_until_ms"], params["loss_rate"]),
    ])
    rng = np.random.default_rng(seed)
    models = [rng.normal(size=params["model_params"])
              for _ in range(topo.n_peers)]
    result = run_two_layer_wire_round(
        topo, models, k=k, seed=seed,
        schedule=schedule, transport="reliable",
    )
    assert result.outcome.ok
    return {
        "sim_time_ms": result.finish_time_ms,
        "bits": result.bits_sent,
        "messages": result.messages_sent,
        "retransmits": result.retransmits,
        "drops": result.drops,
    }


def _run_campaign_churn(params: dict, seed: int) -> dict:
    from ..campaign import run_campaign

    # A multi-round churn campaign (wire layer only — the Raft drill's
    # wall cost lives in the campaign tests): membership evolves between
    # rounds, the re-sharding planner repairs the grouping, checkpoints
    # thread the global model through.  The sim block prices a whole
    # campaign and pins its determinism: outcomes, reshards, traffic and
    # the final model are all seed-exact.
    report = run_campaign(
        seed=seed, profile=params["profile"], rounds=params["rounds"],
        n_peers=params["n_peers"], group_size=params["group_size"],
        k=params["k"], model_params=params["model_params"],
        raft=False,
    )
    assert not report.failed
    return {
        "rounds_completed": sum(1 for r in report.rounds if r.outcome.ok),
        "rounds_degraded": sum(1 for r in report.rounds if not r.outcome.ok),
        "reshards": report.reshards,
        "reshard_moves": sum(r.reshard_moves for r in report.rounds),
        "joins": sum(r.joins for r in report.rounds),
        "leaves": sum(r.leaves for r in report.rounds),
        "bits": sum(r.bits for r in report.rounds),
        "messages": sum(r.messages for r in report.rounds),
        "final_weights_sum": float(np.sum(report.final_weights)),
    }


def _run_obs_scale(params: dict, seed: int) -> dict:
    from ..core.topology import Topology
    from ..core.wire_round import run_two_layer_wire_round
    from .scale import obs_self_accounting

    # The telemetry-scalability claim, regression-gated: a two-layer
    # round at n in the thousands under rollup retention + sampled
    # causal tracing.  The round runs twice — at ``baseline_n`` and at
    # ``n`` — and asserts (not estimates) that retained telemetry grows
    # sublinearly in peer count.  Telemetry byte counts are a pure
    # function of the event stream, so they sit in ``sim`` and are
    # compared exactly; wall/alloc measurements ride in ``resources``.
    # The profiling pipeline run_scenario installed; spans created on it
    # keep emitting there even while the inner rollup pipeline is the
    # global one (Span stores its pipeline at construction).
    outer = _runtime.OBS

    def one(n: int, m: int) -> tuple:
        topo = Topology.by_group_count(n, m)
        k = min(params["k"], min(topo.group_sizes))
        rng = np.random.default_rng(seed)
        models = [rng.normal(size=params["model_params"])
                  for _ in range(topo.n_peers)]
        with outer.span("bench.obs_scale", n=n, m=m):
            with _runtime.observe(
                retention="rollup", causal=True,
                causal_sample_rate=params["sample_rate"],
                causal_sample_seed=seed,
            ) as inner:
                result = run_two_layer_wire_round(
                    topo, models, k=k, seed=seed,
                    trace_id=f"obs_scale:n{n}:s{seed}",
                )
        assert result.outcome.ok
        return result, obs_self_accounting(inner)

    small_n, small_m = params["baseline_n"], params["baseline_m"]
    _small, small_acct = one(small_n, small_m)
    result, acct = one(params["n"], params["m"])
    peer_ratio = params["n"] / small_n
    byte_ratio = (
        acct["telemetry_bytes"] / max(1, small_acct["telemetry_bytes"])
    )
    assert byte_ratio < peer_ratio, (
        f"rollup telemetry grew {byte_ratio:.1f}x for {peer_ratio:.1f}x "
        "peers — not sublinear"
    )
    return {
        "sim_time_ms": result.finish_time_ms,
        "bits": result.bits_sent,
        "messages": result.messages_sent,
        "telemetry_bytes": acct["telemetry_bytes"],
        "telemetry_bytes_baseline": small_acct["telemetry_bytes"],
        "rollup_events_seen": acct["rollup_events_seen"],
    }


def _run_xlayer_scale(params: dict, seed: int) -> dict:
    from ..core.costs import multi_layer_cost_bits, multi_layer_message_count
    from ..core.latency import multi_layer_round_latency_ms
    from ..core.multi_layer import MultiLayerTopology
    from ..core.xlayer_wire import run_xlayer_wire_round
    from ..simnet import FixedLatency

    # The 10^5-peer scaling claim, regression-gated: one X-layer round
    # over the simulated wire through the wave engine, then the same
    # schedule replayed per-message ("scalar").  Sim-side results are
    # asserted identical across engines and pinned to the Eq. 10 closed
    # forms, so the ``sim`` block gates correctness exactly; the wall
    # measurements (wave vs scalar, peers/sec, events/sec) ride in
    # ``resources`` via the ``_resources`` side channel.
    n, depth, d = params["n"], params["depth"], params["model_params"]
    delay = params["delay_ms"]
    topo = MultiLayerTopology(n, depth)
    models = np.random.default_rng(seed).normal(size=(topo.n_peers, d))
    latency = FixedLatency(delay)
    outer = _runtime.OBS

    t0 = time.perf_counter()
    wave = run_xlayer_wire_round(
        topo, models, seed=seed, latency=latency, engine="wave",
    )
    wall_wave = time.perf_counter() - t0

    # The scalar replay emits one telemetry event per message — at
    # 10^5 peers that would swamp the profiled collector, so it runs
    # under a nested rollup pipeline (the obs_scale pattern).
    with outer.span("bench.xlayer_scalar", peers=topo.n_peers):
        with _runtime.observe(retention="rollup"):
            t0 = time.perf_counter()
            scalar = run_xlayer_wire_round(
                topo, models, seed=seed, latency=latency, engine="scalar",
            )
            wall_scalar = time.perf_counter() - t0

    assert scalar.finish_time_ms == wave.finish_time_ms
    assert scalar.bits_sent == wave.bits_sent
    assert scalar.messages_sent == wave.messages_sent
    assert np.array_equal(scalar.average, wave.average)
    assert wave.bits_sent == multi_layer_cost_bits(n, depth, d)
    assert wave.messages_sent == multi_layer_message_count(n, depth)
    assert wave.finish_time_ms == multi_layer_round_latency_ms(depth, delay)
    return {
        "sim_time_ms": wave.finish_time_ms,
        "bits": wave.bits_sent,
        "messages": wave.messages_sent,
        "n_peers": wave.n_peers,
        "groups": wave.n_groups,
        "wave_heap_events": wave.heap_stats["events_processed"],
        "scalar_heap_events": scalar.heap_stats["events_processed"],
        "_resources": {
            "wall_wave_ms": wall_wave * 1e3,
            "wall_scalar_ms": wall_scalar * 1e3,
            "scalar_over_wave": wall_scalar / wall_wave,
            "peers_per_sec": wave.n_peers / wall_wave,
            "events_per_sec": wave.messages_sent / wall_wave,
        },
    }


def _run_chaos_scale(params: dict, seed: int) -> dict:
    from ..chaos.scale import run_scale_trial

    # The chaos-at-scale acceptance point in bench form: one lossy
    # reliable X-layer round under the deterministic scale fault
    # schedule (loss window + delay spike + leaf crash/recover pairs),
    # run through the wave engine and replayed per-message.  Every
    # sim-side ScaleReport field must agree across engines — the same
    # identity benchmarks/test_chaos_scale.py gates at 10^5 peers —
    # so the ``sim`` block is exact; wall measurements (wave vs scalar)
    # ride in ``_resources``.
    kw = dict(
        target_peers=params["target_peers"], depth=params["depth"],
        loss_rate=params["loss_rate"], seed=seed,
        max_attempts=params["max_attempts"],
    )
    outer = _runtime.OBS
    wave = run_scale_trial(engine="wave", **kw)
    # The scalar replay emits one telemetry event per item; nest it in
    # a rollup pipeline so it cannot swamp the profiled collector.
    with outer.span("bench.chaos_scale_scalar", peers=wave.n_peers):
        with _runtime.observe(retention="rollup"):
            scalar = run_scale_trial(engine="scalar", **kw)
    for name in ("n_peers", "finish_ms", "outcome", "average_sum",
                 "bits_sent", "messages_sent", "retransmits", "acks",
                 "duplicates", "exhausted", "dropped"):
        assert getattr(wave, name) == getattr(scalar, name), (
            f"engine mismatch on {name}: "
            f"wave={getattr(wave, name)!r} scalar={getattr(scalar, name)!r}"
        )
    assert wave.outcome == "completed"
    return {
        "sim_time_ms": wave.finish_ms,
        "bits": wave.bits_sent,
        "messages": wave.messages_sent,
        "n_peers": wave.n_peers,
        "retransmits": wave.retransmits,
        "acks": wave.acks,
        "duplicates": wave.duplicates,
        "exhausted": wave.exhausted,
        "dropped": wave.dropped,
        "wave_heap_events": wave.heap["events_processed"],
        "scalar_heap_events": scalar.heap["events_processed"],
        "_resources": {
            "wall_wave_ms": wave.wall_s * 1e3,
            "wall_scalar_ms": scalar.wall_s * 1e3,
            "scalar_over_wave": scalar.wall_s / wave.wall_s,
            "peers_per_sec": wave.n_peers / wave.wall_s,
        },
    }


def _run_two_layer(params: dict, seed: int) -> dict:
    from ..core.topology import Topology
    from ..core.wire_round import run_two_layer_wire_round

    topo = Topology.by_group_count(params["n"], params["m"])
    k = min(params["k"], min(topo.group_sizes))
    rng = np.random.default_rng(seed)
    models = [rng.normal(size=params["model_params"])
              for _ in range(topo.n_peers)]
    result = run_two_layer_wire_round(
        topo, models, k=k, seed=seed,
        parallel=params.get("parallel", "off"),
    )
    assert result.outcome.ok
    return {
        "sim_time_ms": result.finish_time_ms,
        "bits": result.bits_sent,
        "messages": result.messages_sent,
        "groups": topo.n_groups,
    }


def _run_failover(params: dict, seed: int) -> dict:
    from ..core.topology import Topology
    from ..twolayer_raft.system import TwoLayerRaftSystem

    topo = Topology.by_group_size(params["n"], params["group_size"])
    system = TwoLayerRaftSystem(topo, seed=seed)
    obs = _runtime.OBS
    with obs.span("bench.failover", clock=lambda: system.sim.now,
                  peers=params["n"]):
        system.stabilize()
        victim = system.subgroup_leader(1)
        assert victim is not None
        system.crash(victim)
        system.stabilize()
    assert system.subgroup_leader(1) is not None
    return {
        "sim_time_ms": system.sim.now,
        "bits": system.trace.total_bits,
        "messages": system.trace.total_messages,
        "elections": len(obs.events_named("raft.election.win")),
    }


def _run_nn_epoch(params: dict, seed: int) -> dict:
    from ..data.synthetic import synthetic_blobs
    from ..fl.peer import FLPeer
    from ..nn.zoo import mlp_classifier

    rng = np.random.default_rng(seed)
    dataset = synthetic_blobs(
        n_train=params["n_train"], n_test=64,
        n_features=params["n_features"], n_classes=4, rng=rng,
    )
    model = mlp_classifier(
        params["n_features"], rng=rng, hidden=(params["hidden"],), n_classes=4,
    )
    peer = FLPeer(0, model, dataset.x_train, dataset.y_train, rng, lr=1e-3)
    obs = _runtime.OBS
    with obs.span("bench.nn_epoch", n_params=model.n_params):
        loss = peer.local_update(epochs=1)
    return {
        "train_loss": loss,
        "n_params": model.n_params,
        "samples": params["n_train"],
    }


def build_suite(
    smoke: bool = False, seed: int = 0, parallel: str | None = None
) -> list[Scenario]:
    """The canonical scenario list (tiny sizes under ``smoke``).

    ``parallel`` overrides the execution mode of the ``two_layer_parallel``
    scenario (``python -m repro bench --parallel ...``); the sim-side
    numbers are mode-independent by the :mod:`repro.par` determinism
    contract, so the override only moves that scenario's wall clock.
    """
    if smoke:
        two_layer = [(6, 2), (9, 3)]
        sac = {"n": 4, "k": 3, "model_params": 32}
        ftsac = {"n": 4, "k": 3, "model_params": 32}
        failover = {"n": 6, "group_size": 3}
        nn = {"n_train": 128, "n_features": 8, "hidden": 16}
        params = 32
        par_nm = (9, 3)
        chaos_nm = (9, 3)
    else:
        two_layer = [(12, 3), (12, 4), (20, 5)]
        sac = {"n": 8, "k": 5, "model_params": 512}
        ftsac = {"n": 6, "k": 4, "model_params": 512}
        failover = {"n": 9, "group_size": 3}
        nn = {"n_train": 512, "n_features": 16, "hidden": 32}
        params = 256
        par_nm = (20, 5)
        chaos_nm = (12, 4)
    suite = [
        Scenario("sac_round", seed, sac, _run_sac_round),
        Scenario("ftsac_dropout", seed, ftsac, _run_ftsac_dropout),
        # Same workloads under the seed-compressed share codec: the wire
        # delta against the dense rows above is the headline of the
        # O(d + n) share-distribution optimisation.
        Scenario("sac_round_seed", seed,
                 {**sac, "share_codec": "seed"}, _run_sac_round),
        Scenario("ftsac_dropout_seed", seed,
                 {**ftsac, "share_codec": "seed"}, _run_ftsac_dropout),
        # sac_round's workload through the batched kernels alone (no
        # simulated wire): the wall delta is the protocol overhead.
        Scenario("sac_round_batched", seed, dict(sac), _run_sac_round_batched),
    ]
    for n, m in two_layer:
        suite.append(Scenario(
            f"two_layer_n{n}_m{m}", seed,
            {"n": n, "m": m, "k": 2, "model_params": params},
            _run_two_layer,
        ))
    # The same round fanned out across subgroups (repro.par); sim metrics
    # equal the sequential scenario's at the same (n, m) by construction.
    suite.append(Scenario(
        "two_layer_parallel", seed,
        {"n": par_nm[0], "m": par_nm[1], "k": 2, "model_params": params,
         "parallel": parallel or "threads"},
        _run_two_layer,
    ))
    # Robustness workloads: the same rounds under loss / fault schedules
    # with the reliable transport — prices retransmission, and guards the
    # chaos path's determinism the same way the rows above guard the
    # default path's.
    suite.append(Scenario(
        "sac_round_lossy", seed,
        {**sac, "loss_rate": 0.2}, _run_sac_round_lossy,
    ))
    suite.append(Scenario(
        "two_layer_chaos", seed,
        {"n": chaos_nm[0], "m": chaos_nm[1], "k": 2, "model_params": params,
         "crash_ms": 10.0, "recover_ms": 200.0,
         "lossy_until_ms": 150.0, "loss_rate": 0.15},
        _run_two_layer_chaos,
    ))
    # A whole churn campaign: joins/leaves between rounds, re-sharding,
    # checkpoint threading.  Prices the campaign orchestrator and pins
    # the multi-round trajectory's determinism in the sim fingerprint.
    campaign = (
        {"rounds": 6, "n_peers": 9, "group_size": 3, "k": 2,
         "model_params": 16}
        if smoke else
        {"rounds": 10, "n_peers": 12, "group_size": 4, "k": 3,
         "model_params": 32}
    )
    suite.append(Scenario(
        "campaign_churn", seed,
        {**campaign, "profile": "mixed"}, _run_campaign_churn,
    ))
    suite.append(Scenario("failover", seed, failover, _run_failover))
    suite.append(Scenario("nn_epoch", seed, nn, _run_nn_epoch))
    # Telemetry at scale: n stays in the thousands even under smoke —
    # the whole point is the 10⁵-peer trajectory, and the acceptance
    # gate requires the sublinearity assertion at n >= 2000.
    obs_scale = (
        {"n": 2000, "m": 100, "baseline_n": 200, "baseline_m": 10}
        if smoke else
        {"n": 4000, "m": 200, "baseline_n": 400, "baseline_m": 20}
    )
    suite.append(Scenario(
        "obs_scale", seed,
        {**obs_scale, "k": 2, "model_params": 4, "sample_rate": 0.25},
        _run_obs_scale,
    ))
    # The X-layer wave engine at scale: depth 10 is 118,096 peers and
    # ~708k wire messages (the 10^5-peer acceptance point); smoke keeps
    # the same shape at depth 6 (1,456 peers) so CI still exercises the
    # engine-equality and closed-form assertions.
    xlayer = (
        {"n": 4, "depth": 6} if smoke else {"n": 4, "depth": 10}
    )
    suite.append(Scenario(
        "xlayer_scale", seed,
        {**xlayer, "model_params": 8, "delay_ms": 15.0},
        _run_xlayer_scale,
    ))
    # Chaos at scale: the lossy reliable wave path under a fault
    # schedule, wave-vs-scalar sim-exact.  Smoke keeps the identical
    # assertions at a few dozen peers; full prices a ~7k-peer campaign
    # (the 10^5-peer point lives in benchmarks/test_chaos_scale.py).
    chaos_scale = (
        {"target_peers": 40, "depth": 3}
        if smoke else
        {"target_peers": 3000, "depth": 6}
    )
    suite.append(Scenario(
        "chaos_scale", seed,
        {**chaos_scale, "loss_rate": 0.2, "max_attempts": 10},
        _run_chaos_scale,
    ))
    return suite


# --------------------------------------------------------------------------
# suite runner
# --------------------------------------------------------------------------

def _wall_stats(walls: Sequence[float], warmup: int) -> dict:
    return {
        "repeats": len(walls),
        "warmup": warmup,
        "min": min(walls),
        "median": statistics.median(walls),
        "mean": statistics.fmean(walls),
        "max": max(walls),
    }


def _measure_resources(sc: Scenario) -> dict:
    """One extra untimed run under ``tracemalloc`` for memory stats.

    Separate from the wall repeats because allocation tracing costs
    real wall time — it must never distort the timed medians.  The
    returned block is a *measurement* (machine-dependent), excluded
    from the sim fingerprint but gated with its own tolerance by
    :func:`compare_artifacts`.
    """
    from .prof import ResourceProfiler
    from .scale import _peak_rss_bytes

    with ResourceProfiler() as prof:
        with _runtime.observe():
            with prof.phase(sc.id):
                sc.run(sc.params, sc.seed)
    stats = prof.phases[0][1]
    return {
        "alloc_peak_bytes": stats["alloc_peak_bytes"],
        "alloc_delta_bytes": stats["alloc_delta_bytes"],
        "peak_rss_bytes": _peak_rss_bytes(),
    }


def run_scenario(
    sc: Scenario, repeats: int = 3, warmup: int = 1, resources: bool = True
) -> dict:
    """Run one scenario ``warmup + repeats`` times; profile the first
    measured repeat (sim-side results are seed-deterministic, so any
    repeat would do) and take wall stats over the measured ones.  A
    final untimed pass under ``tracemalloc`` records the scenario's
    peak telemetry/workload memory (skipped with ``resources=False``)."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    walls_ms: list[float] = []
    sim: Optional[dict] = None
    phases: Optional[list[dict]] = None
    extra_resources: Optional[dict] = None
    for i in range(warmup + repeats):
        with _runtime.observe() as obs:
            t0 = time.perf_counter()
            metrics = sc.run(sc.params, sc.seed)
            wall_ms = (time.perf_counter() - t0) * 1e3
        # A scenario may smuggle extra *measurements* out via the
        # "_resources" key; they join the resources block (tolerance-
        # gated), never the sim block (exact-gated).
        extra = metrics.pop("_resources", None)
        if i < warmup:
            continue
        walls_ms.append(wall_ms)
        if sim is None:
            sim = metrics
            extra_resources = extra
            phases = [p.to_dict() for p in profile_events(obs.events).phases]
    assert sim is not None and phases is not None
    record = {
        "id": sc.id,
        "seed": sc.seed,
        "params": dict(sc.params),
        "sim": sim,
        "wall_ms": _wall_stats(walls_ms, warmup),
        "phases": phases,
    }
    if resources:
        record["resources"] = _measure_resources(sc)
        if extra_resources:
            record["resources"].update(extra_resources)
    elif extra_resources:
        record["resources"] = extra_resources
    return record


def run_suite(
    smoke: bool = False,
    seed: int = 0,
    repeats: int = 3,
    warmup: int = 1,
    only: Iterable[str] | None = None,
    parallel: str | None = None,
    resources: bool = True,
) -> dict:
    """Run the canonical suite and return a schema-valid artifact."""
    wanted = set(only) if only is not None else None
    scenarios = []
    for sc in build_suite(smoke=smoke, seed=seed, parallel=parallel):
        if wanted is not None and sc.id not in wanted:
            continue
        log.info("bench: %s %s", sc.id, sc.params)
        scenarios.append(run_scenario(sc, repeats=repeats, warmup=warmup,
                                      resources=resources))
    artifact = make_artifact(
        scenarios, mode="smoke" if smoke else "full", seed=seed,
    )
    errors = validate_artifact(artifact)
    if errors:  # pragma: no cover - the suite emits what it validates
        raise BenchSchemaError("; ".join(errors))
    return artifact


def make_artifact(scenarios: list[dict], mode: str, seed: int = 0) -> dict:
    """Assemble the artifact envelope around per-scenario records."""
    return {
        "schema": SCHEMA,
        "suite_version": SUITE_VERSION,
        "mode": mode,
        "seed": seed,
        "created_wall_s": time.time(),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "scenarios": scenarios,
    }


# --------------------------------------------------------------------------
# schema
# --------------------------------------------------------------------------

def _is_num(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def validate_artifact(doc: Any) -> list[str]:
    """All schema violations in ``doc`` (empty list == valid).

    The schema is deliberately open: unknown keys are allowed anywhere
    (the failover example attaches a per-round ``series``), but every
    required key must be present with the right shape.
    """
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["artifact must be a JSON object"]
    if doc.get("schema") != SCHEMA:
        errors.append(f"schema must be {SCHEMA!r}, got {doc.get('schema')!r}")
    if not isinstance(doc.get("suite_version"), int):
        errors.append("suite_version must be an integer")
    if not isinstance(doc.get("mode"), str):
        errors.append("mode must be a string")
    if not _is_num(doc.get("created_wall_s")):
        errors.append("created_wall_s must be a number")
    env = doc.get("environment")
    if not isinstance(env, dict) or not all(
        isinstance(v, str) for v in env.values()
    ):
        errors.append("environment must be a string-valued object")
    scenarios = doc.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        errors.append("scenarios must be a non-empty list")
        return errors
    seen: set[str] = set()
    for i, sc in enumerate(scenarios):
        where = f"scenarios[{i}]"
        if not isinstance(sc, dict):
            errors.append(f"{where} must be an object")
            continue
        sid = sc.get("id")
        if not isinstance(sid, str) or not sid:
            errors.append(f"{where}.id must be a non-empty string")
        elif sid in seen:
            errors.append(f"{where}.id {sid!r} duplicated")
        else:
            seen.add(sid)
        if not isinstance(sc.get("seed"), int):
            errors.append(f"{where}.seed must be an integer")
        if not isinstance(sc.get("params"), dict):
            errors.append(f"{where}.params must be an object")
        sim = sc.get("sim")
        if not isinstance(sim, dict) or not sim:
            errors.append(f"{where}.sim must be a non-empty object")
        elif not all(_is_num(v) for v in sim.values()):
            errors.append(f"{where}.sim values must all be numbers")
        wall = sc.get("wall_ms")
        if not isinstance(wall, dict):
            errors.append(f"{where}.wall_ms must be an object")
        else:
            for key in _WALL_STAT_KEYS:
                if not _is_num(wall.get(key)):
                    errors.append(f"{where}.wall_ms.{key} must be a number")
        res = sc.get("resources")
        if res is not None:
            if not isinstance(res, dict):
                errors.append(f"{where}.resources must be an object")
            else:
                for key, value in res.items():
                    if value is not None and not _is_num(value):
                        errors.append(
                            f"{where}.resources.{key} must be a number or null"
                        )
        phases = sc.get("phases")
        if not isinstance(phases, list):
            errors.append(f"{where}.phases must be a list")
            continue
        for j, ph in enumerate(phases):
            pwhere = f"{where}.phases[{j}]"
            if not isinstance(ph, dict):
                errors.append(f"{pwhere} must be an object")
                continue
            path = ph.get("path")
            if not (isinstance(path, list) and path
                    and all(isinstance(s, str) for s in path)):
                errors.append(f"{pwhere}.path must be a list of names")
            for key in ("count", "total_ms", "self_ms", "bits", "messages",
                        "dropped", "wall_total_ms", "wall_self_ms"):
                if not _is_num(ph.get(key)):
                    errors.append(f"{pwhere}.{key} must be a number")
            if not isinstance(ph.get("bits_by_kind"), dict):
                errors.append(f"{pwhere}.bits_by_kind must be an object")
            if not (ph.get("straggler") is None
                    or isinstance(ph.get("straggler"), dict)):
                errors.append(f"{pwhere}.straggler must be null or an object")
    return errors


def write_artifact(path: str, doc: dict) -> str:
    """Validate and write ``doc`` as pretty-printed JSON."""
    errors = validate_artifact(doc)
    if errors:
        raise BenchSchemaError("; ".join(errors))
    parent = os.path.dirname(os.path.abspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_artifact(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    errors = validate_artifact(doc)
    if errors:
        raise BenchSchemaError(f"{path}: " + "; ".join(errors))
    return doc


def sim_fingerprint(doc: dict) -> str:
    """Canonical JSON of the deterministic (sim-side) artifact subset.

    Two same-seed runs of the suite must produce identical fingerprints;
    wall-clock measurements and the creation timestamp are excluded.
    """
    scenarios = []
    for sc in doc.get("scenarios", []):
        phases = [
            {k: ph[k] for k in _PHASE_SIM_KEYS if k in ph}
            for ph in sc.get("phases", [])
        ]
        scenarios.append({
            "id": sc.get("id"),
            "seed": sc.get("seed"),
            "params": sc.get("params"),
            "sim": sc.get("sim"),
            "phases": phases,
        })
    subset = {
        "schema": doc.get("schema"),
        "suite_version": doc.get("suite_version"),
        "mode": doc.get("mode"),
        "seed": doc.get("seed"),
        "scenarios": scenarios,
    }
    return json.dumps(subset, sort_keys=True)


# --------------------------------------------------------------------------
# regression gate
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Delta:
    """One compared metric; ``regression`` drives the exit status."""

    scenario: str
    metric: str
    old: Any
    new: Any
    regression: bool
    note: str = ""


def _phase_index(sc: dict) -> dict[tuple[str, ...], dict]:
    return {tuple(ph["path"]): ph for ph in sc.get("phases", [])}


def compare_artifacts(
    old: dict, new: dict, wall_tolerance: float = 1.5,
    mem_tolerance: float = 2.0,
) -> tuple[bool, list[Delta]]:
    """Diff two artifacts metric-by-metric.

    Sim-side metrics are deterministic, so *any* difference fails the
    gate (even an apparent improvement — the baseline must be re-blessed
    by regenerating it).  Wall medians fail only beyond
    ``wall_tolerance`` (default: new may be up to 1.5x old); peak
    allocation (the ``resources`` block) gets its own, looser
    ``mem_tolerance`` — allocator noise is larger than timer noise.  A
    baseline without resources yields an info line, never a regression.
    """
    if wall_tolerance < 1.0:
        raise ValueError("wall_tolerance must be >= 1.0")
    if mem_tolerance < 1.0:
        raise ValueError("mem_tolerance must be >= 1.0")
    deltas: list[Delta] = []

    def add(scenario: str, metric: str, o: Any, n: Any,
            regression: bool, note: str = "") -> None:
        deltas.append(Delta(scenario, metric, o, n, regression, note))

    if old.get("suite_version") != new.get("suite_version"):
        add("<suite>", "suite_version", old.get("suite_version"),
            new.get("suite_version"), True,
            "suite redefined; artifacts are not comparable")
    if old.get("mode") != new.get("mode"):
        add("<suite>", "mode", old.get("mode"), new.get("mode"), True,
            "smoke and full artifacts are not comparable")

    old_sc = {sc["id"]: sc for sc in old.get("scenarios", [])}
    new_sc = {sc["id"]: sc for sc in new.get("scenarios", [])}
    for sid in old_sc:
        if sid not in new_sc:
            add(sid, "<scenario>", "present", "missing", True,
                "scenario disappeared from the suite")
    for sid in new_sc:
        if sid not in old_sc:
            add(sid, "<scenario>", "missing", "present", False,
                "new scenario (no baseline)")

    for sid, osc in old_sc.items():
        nsc = new_sc.get(sid)
        if nsc is None:
            continue
        # --- sim metrics: exact.
        osim, nsim = osc.get("sim", {}), nsc.get("sim", {})
        for key in sorted(osim):
            if key not in nsim:
                add(sid, f"sim.{key}", osim[key], None, True, "metric removed")
            elif nsim[key] != osim[key]:
                worse = (
                    _is_num(osim[key]) and _is_num(nsim[key])
                    and nsim[key] > osim[key]
                )
                add(sid, f"sim.{key}", osim[key], nsim[key], True,
                    "sim regression" if worse
                    else "sim changed (baseline must be re-blessed)")
        # --- per-phase profile: exact on sim-side fields.
        ophases, nphases = _phase_index(osc), _phase_index(nsc)
        for path in sorted(ophases):
            label = "/".join(path)
            if path not in nphases:
                add(sid, f"phase.{label}", "present", "missing", True,
                    "phase disappeared")
                continue
            oph, nph = ophases[path], nphases[path]
            for key in ("count", "total_ms", "self_ms", "bits",
                        "messages", "dropped"):
                if oph.get(key) != nph.get(key):
                    add(sid, f"phase.{label}.{key}", oph.get(key),
                        nph.get(key), True, "sim-side phase change")
        # --- wall time: threshold on the median.
        omed = osc.get("wall_ms", {}).get("median")
        nmed = nsc.get("wall_ms", {}).get("median")
        if _is_num(omed) and _is_num(nmed) and omed > 0:
            ratio = nmed / omed
            if ratio > wall_tolerance:
                add(sid, "wall_ms.median", omed, nmed, True,
                    f"{ratio:.2f}x slower (tolerance {wall_tolerance:.2f}x)")
            else:
                add(sid, "wall_ms.median", omed, nmed, False,
                    f"{ratio:.2f}x (within {wall_tolerance:.2f}x)")
        # --- peak memory: threshold on the resource pass's alloc peak.
        opeak = (osc.get("resources") or {}).get("alloc_peak_bytes")
        npeak = (nsc.get("resources") or {}).get("alloc_peak_bytes")
        if _is_num(opeak) and _is_num(npeak) and opeak > 0:
            ratio = npeak / opeak
            if ratio > mem_tolerance:
                add(sid, "resources.alloc_peak_bytes", opeak, npeak, True,
                    f"{ratio:.2f}x more peak memory "
                    f"(tolerance {mem_tolerance:.2f}x)")
            else:
                add(sid, "resources.alloc_peak_bytes", opeak, npeak, False,
                    f"{ratio:.2f}x (within {mem_tolerance:.2f}x)")
        elif _is_num(npeak):
            add(sid, "resources.alloc_peak_bytes", None, npeak, False,
                "no memory baseline (regenerate to gate memory)")

    ok = not any(d.regression for d in deltas)
    return ok, deltas


def format_compare_report(
    ok: bool, deltas: list[Delta], wall_tolerance: float = 1.5,
    mem_tolerance: float = 2.0,
) -> str:
    """Readable delta report for the CLI.

    Wall-clock medians render as a per-scenario table (old / new /
    ratio / peak-memory ratio / verdict); sim-side and structural
    deltas — always regressions when present — are listed individually
    below it.
    """
    lines = [
        f"BENCH compare (wall tolerance {wall_tolerance:.2f}x, "
        f"mem tolerance {mem_tolerance:.2f}x)"
    ]
    walls = [d for d in deltas if d.metric == "wall_ms.median"]
    mems = {
        d.scenario: d for d in deltas
        if d.metric == "resources.alloc_peak_bytes"
    }
    others = [
        d for d in deltas
        if d.metric not in ("wall_ms.median", "resources.alloc_peak_bytes")
    ]
    regressions = [d for d in deltas if d.regression]
    infos = [d for d in deltas if not d.regression]

    if walls:
        width = max([len(d.scenario) for d in walls] + [8])
        lines.append(
            f"  {'scenario':<{width}}  {'old med ms':>12}  "
            f"{'new med ms':>12}  {'ratio':>7}  {'peak MB':>9}  "
            f"{'mem':>7}  verdict"
        )
        for d in walls:
            ratio = (
                f"{d.new / d.old:>6.2f}x"
                if _is_num(d.old) and _is_num(d.new) and d.old > 0
                else f"{'?':>7}"
            )
            mem = mems.get(d.scenario)
            if mem is not None and _is_num(mem.new):
                peak = f"{mem.new / 1e6:>9.2f}"
                mem_ratio = (
                    f"{mem.new / mem.old:>6.2f}x"
                    if _is_num(mem.old) and mem.old > 0 else f"{'new':>7}"
                )
            else:
                peak, mem_ratio = f"{'-':>9}", f"{'-':>7}"
            failed = d.regression or (mem is not None and mem.regression)
            verdict = "FAIL" if failed else "ok"
            row = (
                f"  {d.scenario:<{width}}  {d.old:>12.2f}  "
                f"{d.new:>12.2f}  {ratio}  {peak}  {mem_ratio}  {verdict}"
            )
            notes = [x.note for x in (d, mem) if x is not None and x.regression]
            # Surface the informational note when the old artifact had
            # no memory measurements (the "new" placeholder alone would
            # hide why the column cannot gate).
            if mem is not None and not mem.regression and mem.old is None:
                notes.append(mem.note)
            if notes:
                row += f"  ({'; '.join(notes)})"
            lines.append(row)
        # Memory deltas for scenarios with no wall row still need a line.
        for sid, mem in mems.items():
            if any(d.scenario == sid for d in walls):
                continue
            others.append(mem)
    for d in others:
        tag = "FAIL" if d.regression else "ok  "
        lines.append(
            f"  {tag} {d.scenario:<20} {d.metric:<40} "
            f"{d.old!r} -> {d.new!r}  {d.note}"
        )
    lines.append(
        f"verdict: {'PASS' if ok else 'FAIL'} "
        f"({len(regressions)} regression(s), {len(infos)} ok)"
    )
    return "\n".join(lines)


def format_suite_summary(artifact: dict) -> str:
    """One-line-per-scenario table for printing after a suite run."""
    lines = [
        f"BENCH suite v{artifact['suite_version']} "
        f"({artifact['mode']}, seed {artifact['seed']})",
        f"  {'scenario':<20}{'sim ms':>10}{'Mb':>9}{'msgs':>7}"
        f"{'wall med ms':>13}{'phases':>8}",
    ]
    for sc in artifact["scenarios"]:
        sim = sc["sim"]
        sim_ms = sim.get("sim_time_ms")
        bits = sim.get("bits")
        lines.append(
            f"  {sc['id']:<20}"
            + (f"{sim_ms:>10.1f}" if sim_ms is not None else f"{'-':>10}")
            + (f"{bits / 1e6:>9.2f}" if bits is not None else f"{'-':>9}")
            + (f"{sim.get('messages'):>7}" if "messages" in sim else f"{'-':>7}")
            + f"{sc['wall_ms']['median']:>13.1f}"
            + f"{len(sc['phases']):>8}"
        )
    return "\n".join(lines)
