"""The manifest of the paper's artefacts: one row per table, figure,
equation or bound of its evaluation.

Each row names the ``benchmarks/`` file that reproduces the artefact,
the paper's evaluation settings, the values the paper reports and the
band a measured value must land in.  It is the one place paper numbers
live: the experiment runners, the figure tables, ``python -m repro
report`` and the benchmark files read them from here.

A value with no band is reported but not gated: Figs. 6-9 run a
synthetic workload (DESIGN.md), so only their shapes are asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping


@dataclass(frozen=True)
class Artefact:
    id: str
    #: the benchmark file that reproduces it, relative to the repo root
    benchmark: str
    #: what the paper shows, in one line
    claim: str
    #: the paper's evaluation parameters
    setting: Mapping[str, object]
    #: the values the paper reports, by name
    paper: Mapping[str, float]
    #: ``[lo, hi]`` a measured value must land in, by the same names
    band: Mapping[str, tuple[float, float]]

    def misses(self, measured: Mapping[str, float]) -> list[str]:
        """Names of banded values that ``measured`` lacks or puts outside
        their band."""
        return [k for k, (lo, hi) in self.band.items()
                if not lo <= measured.get(k, math.nan) <= hi]


def _within(values: Mapping[str, float], rel: float) -> dict[str, tuple[float, float]]:
    return {k: (v * (1 - rel), v * (1 + rel)) for k, v in values.items()}


#: Figs. 6-7 (Sec. VI-A1): CIFAR-10, N = 10, n in {3, 5, N}, 1000 rounds,
#: Adam at 1e-4, one epoch per round, batch 50.
_FL_N10 = {
    "n_peers": 10, "rounds": 1000, "group_sizes": (3, 5, 10),
    "distributions": ("iid", "noniid-5", "noniid-0"),
    "epochs": 1, "batch_size": 50, "lr": 1e-4, "dataset": "cifar10",
}
#: Figs. 8-9: N = 20, n = 5 (four subgroups), p in {0.5, 1}.
_FL_N20 = {**_FL_N10, "n_peers": 20, "group_sizes": (5,), "fractions": (0.5, 1.0)}
#: Figs. 10-12 (Sec. VI-B1): N = 25 in five subgroups of five, 15 ms
#: delay, timeouts ~ U(T, 2T), 1000 trials per range, 100 ms FedAvg
#: presence check.
_RAFT = {
    "n_peers": 25, "group_count": 5, "delay_ms": 15.0,
    "timeout_bases_ms": (50.0, 100.0, 150.0, 200.0), "trials": 1000,
    "join_poll_interval_ms": 100.0,
}
#: The mean times the paper's text gives per timeout range: Fig. 10's
#: re-election, then what the FedAvg join (Fig. 11) and a FedAvg leader
#: crash (Fig. 12) add to the figure before.
_FIG10 = {"T=50": 214.30, "T=100": 401.04, "T=150": 580.74, "T=200": 749.07}
_FIG11 = {k: _FIG10[k] + d for k, d in
          zip(_FIG10, (122.98, 125.8, 144.70, 166.09))}
_FIG12 = {k: _FIG11[k] + d for k, d in
          zip(_FIG10, (95.07, 114.65, 130.30, 158.53))}

ARTEFACTS: dict[str, Artefact] = {a.id: a for a in (
    Artefact(
        "Table I", "benchmarks/test_table1_env.py",
        "the evaluation environment (reported for this host)",
        {}, {}, {},
    ),
    Artefact(
        "Fig. 6", "benchmarks/test_fig6_accuracy.py",
        "two-layer SAC accuracy coincides with one-layer SAC; IID > non-IID",
        _FL_N10, {"IID accuracy, n=3": 0.7469, "non-IID(0%) accuracy, n=3": 0.5795},
        {},
    ),
    Artefact(
        "Fig. 7", "benchmarks/test_fig7_loss.py",
        "two-layer SAC training loss coincides with one-layer SAC",
        _FL_N10, {}, {},
    ),
    Artefact(
        "Fig. 8", "benchmarks/test_fig8_fraction_accuracy.py",
        "half the subgroups reaching the FedAvg leader costs little accuracy",
        _FL_N20, {"mean |p=1 - p=0.5| accuracy gap": 0.0218},
        {"mean |p=1 - p=0.5| accuracy gap": (0.0, 0.15)},
    ),
    Artefact(
        "Fig. 9", "benchmarks/test_fig9_fraction_loss.py",
        "training loss converges at both fractions p",
        _FL_N20, {}, {},
    ),
    Artefact(
        "Fig. 10", "benchmarks/test_fig10_subgroup_election.py",
        "a crashed subgroup leader is replaced in about twice the timeout",
        _RAFT, _FIG10, _within(_FIG10, 0.25),
    ),
    Artefact(
        "Fig. 11", "benchmarks/test_fig11_join_fedavg.py",
        "the new subgroup leader then joins the FedAvg group",
        _RAFT, _FIG11, _within(_FIG11, 0.25),
    ),
    Artefact(
        "Fig. 12", "benchmarks/test_fig12_fedavg_recovery.py",
        "a crashed FedAvg leader: both layers recover",
        _RAFT, _FIG12, _within(_FIG12, 0.35),
    ),
    Artefact(
        "Fig. 13", "benchmarks/test_fig13_cost_vs_m.py",
        "cost per aggregation against m at N = 30: one-tenth at m = 6",
        {"n_peers": 30}, {"Gb at m=6": 7.12, "m=1 over m=6": 10.0},
        {"Gb at m=6": (7.11, 7.13), "m=1 over m=6": (8.0, 12.0)},
    ),
    Artefact(
        "Fig. 14", "benchmarks/test_fig14_cost_kn.py",
        "cost per aggregation under k-n settings against the SAC baseline",
        {"n_totals": (10, 20, 30, 40, 50), "k-n": ("3-3", "2-3", "5-5", "3-5")},
        {"2-3 gain at N=30": 10.36, "3-3 gain at N=30": 14.75,
         "3-5 gain at N=30": 4.29, "baseline Gb at N=50": 196.13},
        {"2-3 gain at N=30": (10.35, 10.37), "3-3 gain at N=30": (14.74, 14.76),
         "3-5 gain at N=30": (4.28, 4.30), "baseline Gb at N=50": (196.12, 196.14)},
    ),
    Artefact(
        "Eq. 10", "benchmarks/test_multilayer_cost.py",
        "X-layer cost (N-1)(n+2)|w| (Sec. VII-C), measured on an n = 3 tree",
        {"n": 3, "depth": 3, "params": 64},
        {"cost / ((N-1)|w|)": 5.0}, {"cost / ((N-1)|w|)": (5.0, 5.0)},
    ),
    Artefact(
        "Sec. VII-D", "benchmarks/test_fault_tolerance_mc.py",
        "crashes the system survives: any 2, and 15 when leaders stay up",
        {"n_peers": 25, "group_count": 5},
        {"guaranteed crashes": 2, "optimistic crashes": 15},
        {"guaranteed crashes": (2, 2), "optimistic crashes": (15, 15)},
    ),
)}
