"""The five workloads: inputs from a seed, one op, and the checks on its output.

Each workload is a closed loop with one client: ``run(i)`` is the timed
call into the system, ``check(i, raw)`` (untimed) grades what came back
and reduces it to an :class:`OpRecord`.  Op ``i`` uses seed ``S + i``;
model inputs come from ``default_rng([S, 0])``.  Only names re-exported
by the ``repro`` packages are imported here — this is the surface later
refactors must keep.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np

from repro.campaign import run_campaign
from repro.chaos import run_scale_trial
from repro.core import (
    MultiLayerTopology,
    Topology,
    multi_layer_aggregate,
    multi_layer_cost_bits,
    run_two_layer_wire_round,
    run_xlayer_wire_round,
    two_layer_ft_cost_from_topology,
    two_layer_seeded_cost_from_topology,
)
from repro.simnet import FixedLatency

PAPER_DIM = 1_250_858  # Fig. 5 CNN
SMOKE_DIM = 4096
GROUP_SIZE, K = 5, 3  # 3-of-5 FT-SAC, the Fig. 14 setting
TOL = {"rtol": 1e-9, "atol": 1e-9}
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


# Counts read from result objects (exact by seed); a workload whose
# results do not carry one reports 0 for it.
COUNT_NAMES = (
    "simnet.heap_events", "simnet.scheduled_total", "simnet.peak_pending",
    "simnet.messages", "simnet.retransmits", "simnet.acks", "simnet.dropped",
    "simnet.exhausted", "simnet.first_try_ratio",
    "core.bits_over_closed_form",
    "campaign.reshards", "campaign.reshard_moves", "campaign.degraded_rounds",
)


@dataclass
class OpRecord:
    """What one op contributes to the metrics."""

    correct: bool
    why: str  # the first check that failed, "" when correct
    rounds: int
    ok_rounds: int
    peer_rounds: int  # simulated peers served, summed over the op's rounds
    bits: float
    sim_ms: float | None  # simulated round latency; None where not reported
    checksum: str  # this op's contribution to sim_fingerprint
    counts: dict = field(default_factory=dict)


def _first_failure(checks: dict) -> str:
    return next((name for name, ok in checks.items() if not ok), "")


def _wire_counts(messages, retransmits, acks, dropped, exhausted, heap,
                 bits, closed_form) -> dict:
    frames = messages - acks + retransmits
    return {
        "simnet.heap_events": heap.get("events_processed", 0),
        "simnet.scheduled_total": heap.get("scheduled_total", 0),
        "simnet.peak_pending": heap.get("peak_pending", 0),
        "simnet.messages": messages,
        "simnet.retransmits": retransmits,
        "simnet.acks": acks,
        "simnet.dropped": dropped,
        "simnet.exhausted": exhausted,
        "simnet.first_try_ratio": (messages - acks) / frames if frames else 0.0,
        "core.bits_over_closed_form": bits / closed_form,
    }


class PaperRound:
    """Alg. 3 + Alg. 4 on the per-message actor path at the paper's |w|."""

    def __init__(self, seed: int, smoke: bool, n_peers: int, codec: str):
        dim = SMOKE_DIM if smoke else PAPER_DIM
        self.seed, self.codec, self.n_peers = seed, codec, n_peers
        self.topology = Topology.by_group_size(n_peers, GROUP_SIZE)
        models = np.random.default_rng([seed, 0]).random((n_peers, dim))
        self.models = list(models)
        self.expected = models.mean(axis=0)
        cost = (two_layer_ft_cost_from_topology if codec == "dense"
                else two_layer_seeded_cost_from_topology)
        self.closed_form = cost(self.topology, K, dim)

    def run(self, i: int):
        return run_two_layer_wire_round(
            self.topology, self.models, k=K, seed=self.seed + i,
            share_codec=self.codec, parallel="off",
        )

    def check(self, i: int, r, corrupt: bool = False) -> OpRecord:
        average = r.average + 1e-3 if corrupt else r.average
        checks = {
            "outcome": r.outcome.ok,
            "aggregate": np.allclose(average, self.expected, **TOL),
            "closed_form_bits": r.bits_sent == self.closed_form,
        }
        why = _first_failure(checks)
        return OpRecord(
            correct=not why, why=why, rounds=1, ok_rounds=int(r.outcome.ok),
            peer_rounds=self.n_peers, bits=r.bits_sent,
            sim_ms=r.finish_time_ms,
            checksum=f"{r.finish_time_ms!r}|{r.bits_sent!r}|{r.messages_sent}"
                     f"|{r.outcome.status}|{float(np.sum(r.average))!r}",
            counts=_wire_counts(r.messages_sent, r.retransmits, 0, r.drops, 0,
                                r.heap_stats, r.bits_sent, self.closed_form),
        )


class XLayerWide:
    """Fault-free X-layer round: fire-and-forget delivery waves."""

    def __init__(self, seed: int, smoke: bool):
        n, depth, dim = (4, 6, SMOKE_DIM) if smoke else (4, 10, 8)
        self.seed = seed
        self.topology = MultiLayerTopology(n, depth)
        self.models = np.random.default_rng([seed, 0]).random(
            (self.topology.n_peers, dim))
        self.expected = self.models.mean(axis=0)
        self.closed_form = multi_layer_cost_bits(n, depth, dim)
        self.latency = FixedLatency(15.0)

    def run(self, i: int):
        return run_xlayer_wire_round(
            self.topology, self.models, seed=self.seed + i,
            latency=self.latency, engine="wave", parallel="off",
        )

    def check(self, i: int, r, corrupt: bool = False) -> OpRecord:
        average = r.average + 1e-3 if corrupt else r.average
        checks = {
            "outcome": r.outcome.ok,
            "aggregate": np.allclose(average, self.expected, **TOL),
            "closed_form_bits": r.bits_sent == self.closed_form,
        }
        if i == 0:
            # The functional reference walks every group in Python
            # (seconds at 118k peers), so only the warm-up op pays it.
            ref = multi_layer_aggregate(
                self.topology, self.models, np.random.default_rng(self.seed))
            checks["bit_identical_to_reference"] = np.array_equal(
                ref.average, average)
        why = _first_failure(checks)
        return OpRecord(
            correct=not why, why=why, rounds=1, ok_rounds=int(r.outcome.ok),
            peer_rounds=r.n_peers, bits=r.bits_sent, sim_ms=r.finish_time_ms,
            checksum=f"{r.finish_time_ms!r}|{r.bits_sent!r}|{r.messages_sent}"
                     f"|{r.outcome.status}|{float(r.average.sum())!r}",
            counts=_wire_counts(r.messages_sent, r.retransmits, r.acks,
                                r.dropped, r.exhausted, r.heap_stats,
                                r.bits_sent, self.closed_form),
        )


# With the issue's 12 attempts about one round in 75 leaves a send
# undelivered and degrades to a typed timeout (seed 156 does; at 16 attempts
# seed 37 still does).  The benchmark needs workloads on which no op fails;
# at 32 none of seeds 1-159 does, and the budget costs nothing unused.
MAX_ATTEMPTS = 32


class XLayerLossy:
    """The same tree through reliable item waves: 20 % loss + fault script."""

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.peers, self.depth, self.dim = (
            (1000, 6, SMOKE_DIM) if smoke else (118_096, 10, 8))
        self.closed_form = None  # needs the tree's n; filled on first check

    def run(self, i: int):
        return run_scale_trial(
            self.peers, depth=self.depth, loss_rate=0.2, seed=self.seed + i,
            engine="wave", chaos=True, dim=self.dim, parallel="off",
            max_attempts=MAX_ATTEMPTS,
        )

    def check(self, i: int, r, corrupt: bool = False) -> OpRecord:
        if self.closed_form is None:
            self.closed_form = multi_layer_cost_bits(r.n, r.depth, self.dim)
        # run_scale_trial draws its own inputs from the seed; regenerate
        # them to check the aggregate it reports only as a checksum.
        models = np.random.default_rng([self.seed + i, 7]).normal(
            size=(r.n_peers, self.dim))
        got = r.average_sum + 1e-3 if corrupt else r.average_sum
        checks = {
            "outcome": r.outcome == "completed",
            "aggregate": math.isclose(got, float(models.mean(axis=0).sum()),
                                      rel_tol=1e-9, abs_tol=1e-9),
            "bits_at_least_closed_form": r.bits_sent >= self.closed_form,
        }
        why = _first_failure(checks)
        ok = r.outcome == "completed"
        return OpRecord(
            correct=not why, why=why, rounds=1, ok_rounds=int(ok),
            peer_rounds=r.n_peers, bits=r.bits_sent, sim_ms=r.finish_ms,
            checksum=f"{r.finish_ms!r}|{r.bits_sent!r}|{r.messages_sent}"
                     f"|{r.outcome}|{r.average_sum!r}",
            counts=_wire_counts(r.messages_sent, r.retransmits, r.acks,
                                r.dropped, r.exhausted, r.heap, r.bits_sent,
                                self.closed_form),
        )


# Campaigns sampled from consecutive seeds differ by 20 % in wire bits and
# 15 % in peak memory (membership drives both), which would drown a real
# change.  So the churn trajectory is pinned to the one this seed samples
# (54 leaves, 28 rejoins, 4 joins over the 12 rounds); each op's seed still
# draws its fault plans, models, shares and latencies.
CHURN_SEED = 11


class CampaignChurn:
    """Twelve-round campaigns under churn, faults, re-sharding and Raft."""

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.kw = dict(profile="mixed", group_size=GROUP_SIZE, k=K,
                       parallel="off")
        self.kw.update(
            dict(rounds=4, n_peers=20, model_params=SMOKE_DIM) if smoke
            else dict(rounds=12, n_peers=100, model_params=16_384))
        # The schedule depends on the seed and the membership only, so a
        # one-parameter model is enough to have it sampled.
        self.kw["schedule"] = run_campaign(
            CHURN_SEED, **{**self.kw, "model_params": 1}, raft=False).schedule
        self.tmp = tempfile.mkdtemp(prefix="ckpt-", dir=OUT_DIR)

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def run(self, i: int):
        return run_campaign(self.seed + i, checkpoint_dir=self.tmp, raft=True,
                            **self.kw)

    def check(self, i: int, r, corrupt: bool = False) -> OpRecord:
        weights = r.final_weights * np.nan if corrupt else r.final_weights
        checks = {
            "campaign_invariants": not r.failed,
            "aggregate": bool(np.all(np.isfinite(weights))),
        }
        why = _first_failure(checks)
        return OpRecord(
            correct=not why, why=why, rounds=len(r.rounds),
            ok_rounds=sum(rec.outcome.ok for rec in r.rounds),
            peer_rounds=sum(rec.n_alive for rec in r.rounds),
            bits=sum(rec.bits for rec in r.rounds), sim_ms=None,
            checksum=r.fingerprint(),
            counts={
                "simnet.messages": sum(rec.messages for rec in r.rounds),
                "campaign.reshards": r.reshards,
                "campaign.reshard_moves": sum(
                    rec.reshard_moves for rec in r.rounds),
                "campaign.degraded_rounds": sum(
                    rec.status == "degrade" for rec in r.rounds),
            },
        )


# name -> (factory(seed, smoke), ops in a fixed-count run).  The fixed
# counts size each workload for roughly 20-28 s of timed work on the
# 2-core box the baseline was taken on.
WORKLOADS = {
    "paper_round": (lambda s, smoke: PaperRound(s, smoke, 30, "dense"), 20),
    "paper_round_seed": (lambda s, smoke: PaperRound(s, smoke, 10, "seed"), 8),
    "xlayer_wide": (XLayerWide, 300),
    "xlayer_lossy": (XLayerLossy, 40),
    "campaign_churn": (CampaignChurn, 24),
}
SMOKE_OPS = 2
