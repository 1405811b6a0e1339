"""Seed-exact sim pins: 15 small scenarios, byte-identical by seed.

Each scenario runs once under a fresh observability pipeline; its
``params``, its ``sim`` block (virtual time, bits, messages, transport
counters) and the sim-side fields of its per-phase profile
(:func:`repro.obs.prof.profile_events`) are a pure function of the seed
and must equal ``sim_pins.json`` exactly.  Wall-clock fields are
measurements and are not pinned; wall and memory numbers come from
``bench/run.py``.

Every test is parametrised per scenario id and per side — ``sim`` means
the wire moved, ``phases`` means the profile moved.  Running this file
as a script prints the current projection in the pin file's format;
after a deliberate change that is the whole re-bless procedure
(``REBLESS`` below, printed by every failure).
"""

from __future__ import annotations

import copy
import difflib
import functools
import json
from pathlib import Path

import numpy as np
import pytest

from repro.campaign import run_campaign
from repro.chaos import Crash, FaultSchedule, LossWindow, Recover
from repro.chaos.scale import run_scale_trial, scale_schedule
from repro.core.costs import multi_layer_cost_bits, multi_layer_message_count
from repro.core.latency import multi_layer_round_latency_ms
from repro.core.multi_layer import MultiLayerTopology
from repro.core.topology import Topology
from repro.core.wire_round import run_two_layer_wire_round
from repro.core.xlayer_wire import run_xlayer_wire_round
from repro.data.synthetic import synthetic_blobs
from repro.fl.peer import FLPeer
from repro.nn.zoo import mlp_classifier
from repro.obs import runtime
from repro.obs.prof import profile_events
from repro.secure.fault_tolerant import fault_tolerant_sac
from repro.secure.protocol import run_sac_protocol
from repro.secure.replicated import shares_held_by
from repro.simnet import FixedLatency
from repro.twolayer_raft.system import TwoLayerRaftSystem
from tests.simnet.latency import UniformLatency
from tests.simnet.per_item import per_item

SEED = 0
PIN_PATH = Path(__file__).with_name("sim_pins.json")
REBLESS = (
    "PYTHONPATH=src python -m tests.integration.test_sim_pins > /tmp/pins.json"
    " && mv /tmp/pins.json tests/integration/sim_pins.json"
)

#: the sim-side fields of a profiled phase (``wall_*`` are measurements).
PHASE_SIM_KEYS = (
    "path", "count", "total_ms", "self_ms", "bits", "messages", "dropped",
    "bits_by_kind", "straggler", "sim_clocked",
)
#: which keys of a scenario's projection each test side compares.
SIDES = {"sim": ("seed", "params", "sim"), "phases": ("phases",)}


# --------------------------------------------------------------------------
# scenario bodies: (params, seed) -> sim block
# --------------------------------------------------------------------------

def _models(seed: int, count: int, d: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.normal(size=d) for _ in range(count)]


def _sac_round(p: dict, seed: int) -> dict:
    result = run_sac_protocol(
        _models(seed, p["n"], p["model_params"]), k=p["k"], seed=seed,
        share_codec=p.get("share_codec", "dense"),
    )
    assert result.outcome.ok
    return {
        "sim_time_ms": result.finish_time_ms,
        "bits": result.bits_sent,
        "messages": result.messages_sent,
        "recovered_shares": len(result.recovered_shares),
    }


def _ftsac_dropout(p: dict, seed: int) -> dict:
    n, k = p["n"], p["k"]
    # Crash the last n-k subtotal senders mid-flight (t=20ms: after
    # their share bundles landed, before their subtotals arrive), which
    # forces the Alg. 4 lines 17-18 replica fetch.  n < 2k guarantees a
    # surviving replica holder for every crashed primary.
    assert n < 2 * k, "need n < 2k so every crashed subtotal is recoverable"
    leader_holds = set(shares_held_by(0, n, k))
    senders = [q for q in range(1, n) if q not in leader_holds]
    result = run_sac_protocol(
        _models(seed, n, p["model_params"]), k=k, seed=seed,
        crash_at={q: 20.0 for q in senders[-(n - k):]},
        share_codec=p.get("share_codec", "dense"),
    )
    assert result.outcome.ok
    return {
        "sim_time_ms": result.finish_time_ms,
        "bits": result.bits_sent,
        "messages": result.messages_sent,
        "dropouts": n - k,
        "recovered_shares": len(result.recovered_shares),
    }


def _sac_round_batched(p: dict, seed: int) -> dict:
    # The functional Alg. 4 round: sac_round's workload straight through
    # the batched share kernels, no simulated wire.
    with runtime.OBS.span("bench.sac_batched", n=p["n"], k=p["k"]):
        result = fault_tolerant_sac(
            _models(seed, p["n"], p["model_params"]), k=p["k"],
            rng=np.random.default_rng(seed),
        )
    return {
        "bits": result.bits_sent,
        "messages": result.messages_sent,
        "n_peers": result.n_peers,
    }


def _reliable_sim(result) -> dict:
    return {
        "sim_time_ms": result.finish_time_ms,
        "bits": result.bits_sent,
        "messages": result.messages_sent,
        "retransmits": result.retransmits,
        "drops": result.drops,
    }


def _sac_round_lossy(p: dict, seed: int) -> dict:
    # sac_round's workload over a lossy wire with the reliable transport:
    # the deltas against sac_round price the ACK/retransmit machinery.
    result = run_sac_protocol(
        _models(seed, p["n"], p["model_params"]), k=p["k"], seed=seed,
        loss_rate=p["loss_rate"], transport="reliable",
    )
    assert result.outcome.ok
    return _reliable_sim(result)


def _two_layer_setup(p: dict, seed: int):
    topo = Topology.by_group_count(p["n"], p["m"])
    k = min(p["k"], min(topo.group_sizes))
    return topo, k, _models(seed, topo.n_peers, p["model_params"])


def _two_layer(p: dict, seed: int) -> dict:
    topo, k, models = _two_layer_setup(p, seed)
    result = run_two_layer_wire_round(topo, models, k=k, seed=seed)
    assert result.outcome.ok
    return {
        "sim_time_ms": result.finish_time_ms,
        "bits": result.bits_sent,
        "messages": result.messages_sent,
        "groups": topo.n_groups,
    }


def _two_layer_chaos(p: dict, seed: int) -> dict:
    # A fixed crash+recover+loss schedule against one follower, under the
    # reliable transport: the round must still complete (the recovered
    # peer's held frames resend).
    topo, k, models = _two_layer_setup(p, seed)
    victim = next(q for q in range(topo.n_peers) if q not in topo.leaders)
    schedule = FaultSchedule([
        Crash(p["crash_ms"], victim),
        Recover(p["recover_ms"], victim),
        LossWindow(0.0, p["lossy_until_ms"], p["loss_rate"]),
    ])
    result = run_two_layer_wire_round(
        topo, models, k=k, seed=seed, schedule=schedule, transport="reliable",
    )
    assert result.outcome.ok
    return _reliable_sim(result)


def _campaign_churn(p: dict, seed: int) -> dict:
    # A multi-round churn campaign, wire layer only: membership evolves
    # between rounds, the re-sharding planner repairs the grouping,
    # checkpoints thread the global model through.  Outcomes, reshards,
    # traffic and the final model are all seed-exact.
    report = run_campaign(
        seed=seed, profile=p["profile"], rounds=p["rounds"],
        n_peers=p["n_peers"], group_size=p["group_size"], k=p["k"],
        model_params=p["model_params"], raft=False,
    )
    assert not report.failed
    rounds = report.rounds
    return {
        "rounds_completed": sum(1 for r in rounds if r.outcome.ok),
        "rounds_degraded": sum(1 for r in rounds if not r.outcome.ok),
        "reshards": report.reshards,
        "reshard_moves": sum(r.reshard_moves for r in rounds),
        "joins": sum(r.joins for r in rounds),
        "leaves": sum(r.leaves for r in rounds),
        "bits": sum(r.bits for r in rounds),
        "messages": sum(r.messages for r in rounds),
        "final_weights_sum": float(np.sum(report.final_weights)),
    }


def _failover(p: dict, seed: int) -> dict:
    system = TwoLayerRaftSystem(
        Topology.by_group_size(p["n"], p["group_size"]), seed=seed,
    )
    obs = runtime.OBS
    with obs.span("bench.failover", clock=lambda: system.sim.now,
                  peers=p["n"]):
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


def _nn_epoch(p: dict, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    dataset = synthetic_blobs(
        n_train=p["n_train"], n_test=64, n_features=p["n_features"],
        n_classes=4, rng=rng,
    )
    model = mlp_classifier(
        p["n_features"], rng=rng, hidden=(p["hidden"],), n_classes=4,
    )
    peer = FLPeer(0, model, dataset.x_train, dataset.y_train, rng, lr=1e-3)
    with runtime.OBS.span("bench.nn_epoch", n_params=model.n_params):
        loss = peer.local_update()
    return {
        "train_loss": loss,
        "n_params": model.n_params,
        "samples": p["n_train"],
    }


def _xlayer_scale(p: dict, seed: int) -> dict:
    # One X-layer round through the wave engine, then the same schedule
    # replayed per message (tests/simnet/per_item.py): identical and
    # pinned to the Eq. 10 closed forms (10^5 peers:
    # benchmarks/test_xlayer_scale.py).
    n, depth, d = p["n"], p["depth"], p["model_params"]
    topo = MultiLayerTopology(n, depth)
    models = np.random.default_rng(seed).normal(size=(topo.n_peers, d))
    latency = FixedLatency(p["delay_ms"])
    wave = run_xlayer_wire_round(topo, models, seed=seed, latency=latency)
    # The per-item replay emits one telemetry event per message; a nested
    # disabled pipeline keeps it out of the profiled collector.
    with runtime.OBS.span("bench.xlayer_scalar", peers=topo.n_peers):
        with runtime.observe(enabled=False), per_item():
            scalar = run_xlayer_wire_round(
                topo, models, seed=seed, latency=latency,
            )
    assert scalar.finish_time_ms == wave.finish_time_ms
    assert scalar.bits_sent == wave.bits_sent
    assert scalar.messages_sent == wave.messages_sent
    assert np.array_equal(scalar.average, wave.average)
    assert wave.bits_sent == multi_layer_cost_bits(n, depth, d)
    assert wave.messages_sent == multi_layer_message_count(n, depth)
    assert wave.finish_time_ms == multi_layer_round_latency_ms(
        depth, p["delay_ms"])
    return {
        "sim_time_ms": wave.finish_time_ms,
        "bits": wave.bits_sent,
        "messages": wave.messages_sent,
        "n_peers": wave.n_peers,
        "groups": wave.n_groups,
        "wave_heap_events": wave.heap_stats["events_processed"],
        "scalar_heap_events": scalar.heap_stats["events_processed"],
    }


def _chaos_scale(p: dict, seed: int) -> dict:
    # One lossy reliable X-layer round under the deterministic scale
    # fault schedule (loss window + delay spike + leaf crash/recover
    # pairs), wave engine vs per-item replay: every sim-side ScaleReport
    # field must agree (10^5 peers: benchmarks/test_chaos_scale.py).
    kw = dict(
        target_peers=p["target_peers"], depth=p["depth"],
        loss_rate=p["loss_rate"], seed=seed, max_attempts=p["max_attempts"],
    )
    wave = run_scale_trial(**kw)
    with runtime.OBS.span("bench.chaos_scale_scalar", peers=wave.n_peers):
        with runtime.observe(enabled=False), per_item():
            scalar = run_scale_trial(**kw)
    for name in ("n_peers", "finish_ms", "outcome", "average_sum",
                 "bits_sent", "messages_sent", "retransmits", "acks",
                 "duplicates", "exhausted", "dropped"):
        assert getattr(wave, name) == getattr(scalar, name), (
            f"per-item mismatch on {name}: "
            f"wave={getattr(wave, name)!r} per_item={getattr(scalar, name)!r}"
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
    }


def _xlayer_lossy_uniform(p: dict, seed: int) -> dict:
    # The item-wave path that keeps per-message arrays: a lossy reliable
    # X-layer round under the scale fault script with a random latency,
    # so every epoch draws one delay per message and its cohorts
    # straddle the loss window's and the delay spike's edges.  Wave ==
    # per-item replay of the same fates; the pin holds the fates' bits.
    topo = MultiLayerTopology(p["n"], p["depth"])
    models = np.random.default_rng([seed, 7]).normal(
        size=(topo.n_peers, p["model_params"]))
    kw = dict(
        seed=seed, latency=UniformLatency(p["lo_ms"], p["hi_ms"]),
        loss_rate=p["loss_rate"], transport="reliable",
        # A random latency sizes no RTO: two round trips of the
        # default 15 ms delay, as the scale rounds use.
        transport_opts={"max_attempts": p["max_attempts"],
                        "base_rto_ms": 60.0},
        schedule=scale_schedule(topo),
    )
    wave = run_xlayer_wire_round(topo, models, **kw)
    with runtime.OBS.span("bench.xlayer_lossy_scalar", peers=topo.n_peers):
        with runtime.observe(enabled=False), per_item():
            scalar = run_xlayer_wire_round(topo, models, **kw)
    names = ("finish_time_ms", "bits_sent", "messages_sent", "retransmits",
             "acks", "duplicates", "exhausted", "dropped")
    sim = {name: getattr(wave, name) for name in names}
    assert {name: getattr(scalar, name) for name in names} == sim
    assert np.array_equal(scalar.average, wave.average)
    assert wave.outcome.ok
    # Past the spike's end: the round's epochs cross every scripted edge.
    assert wave.finish_time_ms > 300.0
    return {
        **sim,
        "n_peers": topo.n_peers,
        "average_sum": float(wave.average.sum()),
        "wave_heap_events": wave.heap_stats["events_processed"],
        "scalar_heap_events": scalar.heap_stats["events_processed"],
    }


_SAC = {"n": 4, "k": 3, "model_params": 32}
_TWO_LAYER = {"k": 2, "model_params": 32}

#: scenario id -> (params, body).  Sizes are deliberately tiny (the
#: paper-dimension runs are bench/run.py's).
SCENARIOS = {
    "sac_round": (_SAC, _sac_round),
    "ftsac_dropout": (_SAC, _ftsac_dropout),
    # The same rounds under the seed-compressed share codec: the wire
    # delta against the dense rows is the O(d + n) share distribution.
    "sac_round_seed": ({**_SAC, "share_codec": "seed"}, _sac_round),
    "ftsac_dropout_seed": ({**_SAC, "share_codec": "seed"}, _ftsac_dropout),
    "sac_round_batched": (_SAC, _sac_round_batched),
    "two_layer_n6_m2": ({"n": 6, "m": 2, **_TWO_LAYER}, _two_layer),
    "two_layer_n9_m3": ({"n": 9, "m": 3, **_TWO_LAYER}, _two_layer),
    "sac_round_lossy": ({**_SAC, "loss_rate": 0.2}, _sac_round_lossy),
    "two_layer_chaos": (
        {"n": 9, "m": 3, **_TWO_LAYER, "crash_ms": 10.0, "recover_ms": 200.0,
         "lossy_until_ms": 150.0, "loss_rate": 0.15}, _two_layer_chaos),
    "campaign_churn": (
        {"rounds": 6, "n_peers": 9, "group_size": 3, "k": 2,
         "model_params": 16, "profile": "mixed"}, _campaign_churn),
    "failover": ({"n": 6, "group_size": 3}, _failover),
    "nn_epoch": ({"n_train": 128, "n_features": 8, "hidden": 16}, _nn_epoch),
    "xlayer_scale": (
        {"n": 4, "depth": 6, "model_params": 8, "delay_ms": 15.0},
        _xlayer_scale),
    "chaos_scale": (
        {"target_peers": 40, "depth": 3, "loss_rate": 0.2,
         "max_attempts": 10}, _chaos_scale),
    "xlayer_lossy_uniform": (
        {"n": 4, "depth": 6, "model_params": 8, "lo_ms": 10.0, "hi_ms": 20.0,
         "loss_rate": 0.2, "max_attempts": 32}, _xlayer_lossy_uniform),
}


# --------------------------------------------------------------------------
# projection and comparison
# --------------------------------------------------------------------------

def project(sid: str, seed: int = SEED) -> dict:
    """Run scenario ``sid`` once; return its seed-exact projection."""
    params, body = SCENARIOS[sid]
    with runtime.observe() as obs:
        sim = body(params, seed)
    assert not runtime.OBS.enabled, f"{sid} left the global pipeline enabled"
    phases = [
        {key: phase[key] for key in PHASE_SIM_KEYS}
        for phase in (p.to_dict() for p in profile_events(obs.events).phases)
    ]
    # Through JSON, so tuples and numpy scalars compare as the pin file's.
    return json.loads(json.dumps({
        "id": sid, "seed": seed, "params": params, "sim": sim,
        "phases": phases,
    }))


@functools.cache
def current(sid: str) -> dict:
    """The seed-0 projection, run once per session; read-only."""
    return project(sid)


@functools.cache
def pins() -> dict[str, dict]:
    return {pin["id"]: pin for pin in json.loads(PIN_PATH.read_text())}


def check(sid: str, side: str, pinned: dict, got: dict) -> None:
    """Fail with the pinned-vs-got diff of one side of one scenario."""
    want, have = ({key: doc[key] for key in SIDES[side]}
                  for doc in (pinned, got))
    if want == have:
        return
    diff = "\n".join(difflib.unified_diff(
        json.dumps(want, indent=1, sort_keys=True).splitlines(),
        json.dumps(have, indent=1, sort_keys=True).splitlines(),
        "pinned", "got", lineterm="",
    ))
    pytest.fail(
        f"{sid}: seed-exact {side} drifted from {PIN_PATH.name}\n{diff}\n"
        f"if the change is deliberate, re-bless with:\n  {REBLESS}",
        pytrace=False,
    )


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("sid", SCENARIOS)
def test_pin(sid, side):
    check(sid, side, pins()[sid], current(sid))


def test_pin_file_holds_exactly_the_scenarios_run():
    assert list(pins()) == list(SCENARIOS)
    assert len(SCENARIOS) == 15


#: one pinned number moved / one pinned phase row dropped.
_MUTATIONS = {
    "sim": lambda pin: pin["sim"].update(bits=pin["sim"]["bits"] + 1),
    "phases": lambda pin: pin["phases"].pop(),
}


@pytest.mark.parametrize("side", SIDES)
def test_a_drift_names_scenario_and_side_and_how_to_rebless(side):
    pinned = copy.deepcopy(pins()["two_layer_n6_m2"])
    _MUTATIONS[side](pinned)
    other = next(s for s in SIDES if s != side)
    check("two_layer_n6_m2", other, pinned, current("two_layer_n6_m2"))
    with pytest.raises(pytest.fail.Exception) as err:
        check("two_layer_n6_m2", side, pinned, current("two_layer_n6_m2"))
    message = str(err.value)
    assert f"two_layer_n6_m2: seed-exact {side} drifted" in message
    assert "--- pinned" in message and "+++ got" in message
    assert REBLESS in message


# --------------------------------------------------------------------------
# what the scenarios must exercise, beyond matching their pins
# --------------------------------------------------------------------------

@pytest.mark.parametrize("sid", ["ftsac_dropout", "ftsac_dropout_seed"])
def test_dropout_rounds_recover_n_minus_k_shares(sid):
    doc = current(sid)
    dropouts = doc["params"]["n"] - doc["params"]["k"]
    assert doc["sim"]["recovered_shares"] == doc["sim"]["dropouts"] == dropouts
    assert dropouts > 0


def test_some_protocol_phase_carries_a_straggler_row():
    assert any(
        phase["straggler"] is not None
        for sid in SCENARIOS for phase in current(sid)["phases"]
    )


@pytest.mark.parametrize("sid", ["two_layer_n6_m2", "two_layer_n9_m3"])
def test_two_layer_phases_nest_sac_under_round(sid):
    paths = {tuple(phase["path"]) for phase in current(sid)["phases"]}
    assert ("round.two_layer",) in paths
    assert ("round.two_layer", "sac.complete") in paths


def test_a_different_seed_changes_the_projection():
    other = project("nn_epoch", seed=SEED + 1)
    assert other["sim"] != current("nn_epoch")["sim"]


if __name__ == "__main__":
    print(json.dumps([project(sid) for sid in SCENARIOS],
                     indent=1, sort_keys=True))
