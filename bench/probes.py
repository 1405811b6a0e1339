"""Probes: direct timed calls into one layer with fixed inputs.

Each probe isolates a kernel the workloads spend their time in, at the
size the named workload uses, so a later change can be attributed before
it is claimed end to end.  Probes reach below the re-exported package
surface on purpose (that is where the kernels live); one whose target a
refactor removed reports 0 and is listed as missing rather than failing
the run.  Inputs are fixed (seed 0), so the exact ones repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import tempfile
import time

import numpy as np

from workloads import OUT_DIR, PAPER_DIM

FULL_REPS = 10
MIN_REPS = 3


class Timer:
    """Median wall seconds of ``fn()``: ``reps`` calls, or fewer (never
    below ``MIN_REPS``) once ``budget_s`` is spent."""

    def __init__(self, reps: int, budget_s: float | None):
        self.reps, self.budget_s = reps, budget_s

    def __call__(self, fn) -> float:
        samples: list[float] = []
        spent = 0.0
        while len(samples) < self.reps:
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
            spent += samples[-1]
            if (self.budget_s is not None and spent >= self.budget_s
                    and len(samples) >= MIN_REPS):
                break
        return statistics.median(samples)


def _rng():
    return np.random.default_rng(0)


def _leaf_share_wave():
    """src/dst ids of the leaf layer's share wave on the 118,096-peer tree."""
    from repro.core import MultiLayerTopology

    members = MultiLayerTopology(4, 10).member_matrix(10)
    pair_i, pair_j = np.where(~np.eye(4, dtype=bool))
    return members[:, pair_i].reshape(-1), members[:, pair_j].reshape(-1)


def secure_divide_paper(t):
    from repro.secure.batched import batched_divide

    stack, rng = _rng().random((5, PAPER_DIM)), _rng()
    return t(lambda: batched_divide(stack, 5, rng))


def secure_ftsac_paper(t):
    from repro.secure import fault_tolerant_sac

    models, rng = list(_rng().random((5, PAPER_DIM))), _rng()
    return t(lambda: fault_tolerant_sac(models, 3, rng))


def secure_seed_expand_paper(t):
    from repro.secure import seeded_zero_sum_shares

    w, rng = _rng().random(PAPER_DIM), _rng()

    def split_and_expand():
        shares = seeded_zero_sum_shares(w, 5, rng)
        for seed_share in shares.seeds.values():
            seed_share.expand()

    return t(split_and_expand)


def secure_divide_wide(t):
    from repro.secure.batched import apply_divide_noise, draw_divide_noise

    vals, rng = _rng().random((118_096, 8)), _rng()

    def divide():
        rn, totals = draw_divide_noise(len(vals), 4, rng)
        apply_divide_noise(vals, rn, totals)

    return t(divide)


def _wave_rate(t, **net_kw):
    from repro.simnet import FixedLatency, Network, Simulator

    src, dst = _leaf_share_wave()

    def wave():
        sim = Simulator()
        net = Network(sim, latency=FixedLatency(15.0), rng=_rng(), **net_kw)
        net.send_batch(src, dst, size_bits=512.0, kind="probe")
        sim.run(max_events=50_000_000)

    return len(src) / t(wave)


def simnet_wave_msgs_per_s(t):
    return _wave_rate(t)


def simnet_item_msgs_per_s(t):
    return _wave_rate(
        t, loss_rate=0.2, transport="reliable",
        transport_opts={"max_attempts": 12, "base_rto_ms": 60.0})


def simnet_scalar_events_per_s(t):
    from repro.simnet import FixedLatency, Network, SimNode, Simulator

    class Sink(SimNode):
        def on_message(self, src, msg):
            pass

    n_nodes, n_msgs = 100, 50_000

    def scalar():
        sim = Simulator()
        net = Network(sim, latency=FixedLatency(15.0), rng=_rng())
        for node_id in range(n_nodes):
            Sink(node_id, sim, net)
        for i in range(n_msgs):
            net.send(i % n_nodes, (i + 1) % n_nodes, None, size_bits=512.0,
                     kind="probe")
        sim.run()

    return n_msgs / t(scalar)


def core_topology_build(t):
    from repro.core import MultiLayerTopology

    def build():
        topology = MultiLayerTopology(4, 10)
        for layer in range(1, 11):
            topology.member_matrix(layer)

    return t(build)


def _churned_groups():
    """100 stable ids in groups of 5 after churn: two groups under k=3."""
    groups = [list(range(g * 5, g * 5 + 5)) for g in range(20)]
    del groups[3][1:], groups[11][2:]
    groups[7].extend(range(100, 104))
    return tuple(tuple(g) for g in groups)


def core_reshard_plan(t):
    from repro.core import plan_reshard

    groups = _churned_groups()
    return t(lambda: plan_reshard(groups, 3, w_params=16_384))


def core_checkpoint_roundtrip(t):
    from repro.core import dense_topology, load_checkpoint, save_checkpoint

    tmp = tempfile.mkdtemp(prefix="probe-", dir=OUT_DIR)
    path = os.path.join(tmp, "probe.npz")
    weights = _rng().random(16_384)
    groups = tuple(tuple(range(g * 5, g * 5 + 5)) for g in range(20))
    topology, members = dense_topology(groups), tuple(range(100))

    def roundtrip():
        save_checkpoint(path, weights, next_round=1, topology=topology,
                        members=members)
        load_checkpoint(path)

    try:
        return t(roundtrip)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def twolayer_raft_drill(t):
    from repro.campaign import run_raft_drill

    return t(lambda: run_raft_drill(0))


def chaos_timeline_query(t):
    from repro.chaos.scale import scale_schedule
    from repro.core import MultiLayerTopology

    src, dst = _leaf_share_wave()
    times = np.linspace(0.0, 600.0, len(src))
    schedule = scale_schedule(MultiLayerTopology(4, 10))

    def query():
        timeline = schedule.timeline(0.2)
        timeline.link_up_at(src, dst, times)
        timeline.crashed_at(dst, times)
        timeline.loss_rate_at(times)

    return t(query)


_ELECTION_TRIALS = 20


def _election_trials():
    from repro.twolayer_raft import run_trials, subgroup_leader_recovery_trial

    # Fig. 10 setting: election timeout base T = 100 ms.
    return run_trials(subgroup_leader_recovery_trial, _ELECTION_TRIALS, 100.0)


def raft_election_trials_per_s(t):
    return _ELECTION_TRIALS / t(_election_trials)


def raft_sub_elect_ms(t):
    times = [r.sub_elect_ms for r in _election_trials()
             if r.sub_elect_ms is not None]
    return statistics.median(times)


def _par_items():
    rng = _rng()
    return [rng.random((5, 262_144)) for _ in range(8)]


def _par_job(stack):
    from repro.secure.batched import batched_divide

    return batched_divide(stack, 5, np.random.default_rng(0)).sum(axis=0)


def par_process_roundtrip(t):
    from repro.par import run_jobs

    items = _par_items()
    return t(lambda: run_jobs(_par_job, items, "process"))


def par_threads_speedup(t):
    from repro.par import run_jobs

    items = _par_items()
    return (t(lambda: run_jobs(_par_job, items, "off"))
            / t(lambda: run_jobs(_par_job, items, "threads")))


def obs_enabled_overhead_ratio(t):
    from repro.core import MultiLayerTopology, run_xlayer_wire_round
    from repro.obs import observe
    from repro.simnet import FixedLatency

    topology = MultiLayerTopology(4, 10)
    models = _rng().random((topology.n_peers, 8))

    def op():
        run_xlayer_wire_round(topology, models, seed=0,
                              latency=FixedLatency(15.0))

    def observed():
        with observe():
            op()

    return t(observed) / t(op)


# metric name -> (probe, unit)
PROBES = {
    "secure.divide_paper_s": (secure_divide_paper, "s"),
    "secure.ftsac_paper_s": (secure_ftsac_paper, "s"),
    "secure.seed_expand_paper_s": (secure_seed_expand_paper, "s"),
    "secure.divide_wide_s": (secure_divide_wide, "s"),
    "simnet.wave_msgs_per_s": (simnet_wave_msgs_per_s, "1/s"),
    "simnet.item_msgs_per_s": (simnet_item_msgs_per_s, "1/s"),
    "simnet.scalar_events_per_s": (simnet_scalar_events_per_s, "1/s"),
    "core.topology_build_s": (core_topology_build, "s"),
    "core.reshard_plan_s": (core_reshard_plan, "s"),
    "core.checkpoint_roundtrip_s": (core_checkpoint_roundtrip, "s"),
    "twolayer_raft.drill_s": (twolayer_raft_drill, "s"),
    "chaos.timeline_query_s": (chaos_timeline_query, "s"),
    "raft.election_trials_per_s": (raft_election_trials_per_s, "1/s"),
    "raft.sub_elect_ms": (raft_sub_elect_ms, "ms"),
    "par.process_roundtrip_s": (par_process_roundtrip, "s"),
    "par.threads_speedup": (par_threads_speedup, "ratio"),
    "obs.enabled_overhead_ratio": (obs_enabled_overhead_ratio, "ratio"),
}


def run_probes(reps: int, budget_s: float | None) -> tuple[dict, list[str]]:
    """Every probe's value, plus the names of those that could not run."""
    timer = Timer(reps, budget_s)
    values, missing = {}, []
    for name, (probe, _unit) in PROBES.items():
        try:
            values[name] = float(probe(timer))
        except Exception as exc:  # a probe must never fail the run
            values[name] = 0.0
            missing.append(f"{name}: {type(exc).__name__}: {exc}")
    return values, missing


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=None,
                    help="spread this budget over the probes instead of "
                         f"taking {FULL_REPS} samples of each")
    ap.add_argument("--smoke", action="store_true", help="one sample each")
    args = ap.parse_args()
    os.makedirs(OUT_DIR, exist_ok=True)
    budget = None if args.seconds is None else args.seconds / len(PROBES)
    values, missing = run_probes(1 if args.smoke else FULL_REPS, budget)
    print(json.dumps({"per_layer": values,
                      "info": {"probes_missing": missing}}))


if __name__ == "__main__":
    main()
