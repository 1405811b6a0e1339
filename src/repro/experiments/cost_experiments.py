"""Communication-cost experiments — Figs. 13, 14 and the Sec. VII-C table.

The formulas are validated against measured wire traffic elsewhere
(tests + the protocol benchmarks); these runners evaluate them with the
paper's Fig. 5 CNN size (1,250,858 params x 32 bit) to reproduce the
figures' absolute Gb numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.costs import (
    multi_layer_cost_bits,
    multi_layer_total_peers,
    one_layer_sac_cost_bits,
    two_layer_cost_from_topology,
    two_layer_ft_cost_bits,
)
from ..core.multi_layer import MultiLayerTopology, multi_layer_aggregate
from ..core.topology import Topology
from ..nn.zoo import PAPER_CNN_PARAMS
from ..secure.sac import DEFAULT_BITS_PER_PARAM
from .paper_settings import ARTEFACTS

FIG13, FIG14, EQ10 = ARTEFACTS["Fig. 13"], ARTEFACTS["Fig. 14"], ARTEFACTS["Eq. 10"]
BASELINE = "baseline (n=N)"


@dataclass(frozen=True)
class CostPoint:
    label: str
    x: float
    gigabits: float


def run_fig13() -> list[CostPoint]:
    """Fig. 13: total cost per aggregation vs. number of subgroups m.

    N = 30 peers; N/m per subgroup with the remainder spread (the
    caption's 8/8/7/7 example at m=4).  m=1 degenerates to one-layer
    SAC-with-leader-collection; m=N to plain FedAvg.
    """
    n_total, w_params = FIG13.setting["n_peers"], PAPER_CNN_PARAMS
    points = []
    for m in range(1, n_total + 1):
        if m == 1:
            # "simplified to the original one-layer SAC without FedAvg
            # when m = 1" (Fig. 13 caption): the broadcast-everywhere
            # Alg. 2, 2N(N-1)|w|.
            bits = one_layer_sac_cost_bits(n_total, w_params)
        else:
            topo = Topology.by_group_count(n_total, m)
            bits = two_layer_cost_from_topology(topo, w_params)
        points.append(CostPoint(label=f"m={m}", x=m, gigabits=bits / 1e9))
    return points


def run_fig14() -> dict[str, list[CostPoint]]:
    """Fig. 14: cost vs. N for the k-out-of-n settings (labelled k-n, as
    in the paper) and the SAC baseline."""
    series: dict[str, list[CostPoint]] = {}
    for label in (*FIG14.setting["k-n"], BASELINE):
        points = []
        for n_total in FIG14.setting["n_totals"]:
            if label == BASELINE:
                bits = one_layer_sac_cost_bits(n_total, PAPER_CNN_PARAMS)
            else:
                k, n = map(int, label.split("-"))
                m = n_total // n
                bits = two_layer_ft_cost_bits(n_total, m, n, k, PAPER_CNN_PARAMS)
            points.append(CostPoint(label=label, x=n_total, gigabits=bits / 1e9))
        series[label] = points
    return series


def run_multilayer_table() -> list[CostPoint]:
    """Sec. VII-C: X-layer cost (N-1)(n+2)|w| for n = 3 as depth grows
    from 1 to 5."""
    return [
        CostPoint(
            label=f"X={depth} (N={multi_layer_total_peers(3, depth)})",
            x=depth,
            gigabits=multi_layer_cost_bits(3, depth, PAPER_CNN_PARAMS) / 1e9,
        )
        for depth in range(1, 6)
    ]


def fig13_measured(points: list[CostPoint]) -> dict[str, float]:
    by_m = {int(p.x): p.gigabits for p in points}
    return {"Gb at m=6": by_m[6], "m=1 over m=6": by_m[1] / by_m[6]}


def fig14_measured(series: dict[str, list[CostPoint]]) -> dict[str, float]:
    gb = {label: {int(p.x): p.gigabits for p in points}
          for label, points in series.items()}
    base = gb[BASELINE]
    out = {f"{label} gain at N=30": base[30] / gb[label][30]
           for label in ("2-3", "3-3", "3-5")}
    out["baseline Gb at N=50"] = base[50]
    return out


def eq10_measured() -> dict[str, float]:
    """Bits counted while aggregating over the manifest's X-layer tree,
    per (N-1)|w|: Eq. 10 makes it n + 2."""
    n, depth, w = (EQ10.setting[k] for k in ("n", "depth", "params"))
    topo = MultiLayerTopology(n, depth)
    rng = np.random.default_rng(0)
    models = [rng.normal(size=w) for _ in range(topo.n_peers)]
    bits = multi_layer_aggregate(topo, models, rng).bits_sent
    return {"cost / ((N-1)|w|)":
            bits / ((topo.n_peers - 1) * w * DEFAULT_BITS_PER_PARAM)}


def format_fig13(points: list[CostPoint]) -> str:
    paper = FIG13.paper
    lines = [
        f"Fig. 13 — total communication cost per aggregation, "
        f"N={FIG13.setting['n_peers']} (paper: {paper['Gb at m=6']:.2f} Gb "
        f"at m=6, ~1/{paper['m=1 over m=6']:.0f} of one-layer SAC)",
        f"  {'m':>4}{'Gb':>10}",
    ]
    for p in points:
        lines.append(f"  {int(p.x):>4}{p.gigabits:>10.2f}")
    return "\n".join(lines)


def format_fig14(series: dict[str, list[CostPoint]]) -> str:
    n_totals = [int(p.x) for p in next(iter(series.values()))]
    header = "  " + f"{'k-n':<16}" + "".join(f"{f'N={n}':>10}" for n in n_totals)
    gains = ", ".join(f"{FIG14.paper[f'{kn} gain at N=30']:.2f}x at {kn}/N=30"
                      for kn in ("2-3", "3-3", "3-5"))
    lines = [
        f"Fig. 14 — cost per aggregation under k-n settings (paper: {gains})",
        header,
    ]
    for label, points in series.items():
        lines.append(
            "  " + f"{label:<16}" + "".join(f"{p.gigabits:>9.2f}G" for p in points)
        )
    base = series[BASELINE]
    for label, points in series.items():
        if label == BASELINE:
            continue
        ratios = "".join(
            f"{b.gigabits / p.gigabits:>9.2f}x" for p, b in zip(points, base)
        )
        lines.append("  " + f"{label + ' gain':<16}" + ratios)
    return "\n".join(lines)


def format_multilayer(points: list[CostPoint]) -> str:
    lines = [
        "Sec. VII-C — X-layer aggregation cost (N-1)(n+2)|w|, n=3",
        f"  {'depth':<16}{'Gb':>10}",
    ]
    for p in points:
        lines.append(f"  {p.label:<16}{p.gigabits:>10.2f}")
    return "\n".join(lines)
