"""Communication-cost experiments — Figs. 13, 14 and the Sec. VII-C table.

The formulas are validated against measured wire traffic elsewhere
(tests + the protocol benchmarks); these runners evaluate them with the
paper's Fig. 5 CNN size (1,250,858 params x 32 bit) to reproduce the
figures' absolute Gb numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.costs import (
    multi_layer_cost_bits,
    multi_layer_total_peers,
    one_layer_sac_cost_bits,
    two_layer_cost_from_topology,
    two_layer_ft_cost_bits,
)
from ..core.topology import Topology
from ..nn.zoo import PAPER_CNN_PARAMS


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
    n_total, w_params = 30, PAPER_CNN_PARAMS
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


#: The k-n settings plotted in Fig. 14 (label -> (n, k)); None = baseline.
FIG14_SETTINGS: dict[str, tuple[int, int] | None] = {
    "3-3": (3, 3),
    "2-3": (3, 2),   # paper labels these k-n
    "5-5": (5, 5),
    "3-5": (5, 3),
    "baseline (n=N)": None,
}


def run_fig14() -> dict[str, list[CostPoint]]:
    """Fig. 14: cost vs. N = 10..50 for k-out-of-n settings and the SAC
    baseline."""
    series: dict[str, list[CostPoint]] = {}
    for label, setting in FIG14_SETTINGS.items():
        points = []
        for n_total in (10, 20, 30, 40, 50):
            if setting is None:
                bits = one_layer_sac_cost_bits(n_total, PAPER_CNN_PARAMS)
            else:
                n, k = setting
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


def format_fig13(points: list[CostPoint]) -> str:
    lines = [
        "Fig. 13 — total communication cost per aggregation, N=30 "
        "(paper: 7.12 Gb at m=6, ~1/10 of one-layer SAC)",
        f"  {'m':>4}{'Gb':>10}",
    ]
    for p in points:
        lines.append(f"  {int(p.x):>4}{p.gigabits:>10.2f}")
    return "\n".join(lines)


def format_fig14(series: dict[str, list[CostPoint]]) -> str:
    n_totals = [int(p.x) for p in next(iter(series.values()))]
    header = "  " + f"{'k-n':<16}" + "".join(f"{f'N={n}':>10}" for n in n_totals)
    lines = [
        "Fig. 14 — cost per aggregation under k-n settings "
        "(paper: 10.36x at 2-3/N=30, 14.75x at 3-3/N=30, 4.29x at 3-5/N=30)",
        header,
    ]
    for label, points in series.items():
        lines.append(
            "  " + f"{label:<16}" + "".join(f"{p.gigabits:>9.2f}G" for p in points)
        )
    base = series["baseline (n=N)"]
    for label, points in series.items():
        if label == "baseline (n=N)":
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
