"""Beyond-paper — round wall-clock latency vs. m (the Fig. 13 of time).

The paper measures communication volume; this bench converts it into
round wall-clock under uplink serialization (100 Mb/s per peer, 15 ms
links, the Fig. 5 CNN) and sweeps the subgroup count m at N = 30.

The *modeled* latencies are closed-form and deterministic — those carry
the assertions.  The wall clock of computing the sweep is measured with
warmup + median-of-repeats and printed, not asserted.
"""

from conftest import emit, measure

from repro.core import Topology
from repro.core.latency import one_layer_sac_latency_ms, two_layer_round_latency_ms
from repro.nn.zoo import PAPER_CNN_PARAMS

BANDWIDTH = 100e6  # 100 Mb/s uplinks


def test_round_latency_vs_m():
    def sweep():
        rows = []
        one = one_layer_sac_latency_ms(30, PAPER_CNN_PARAMS, BANDWIDTH)
        rows.append(("one-layer SAC", one, None))
        for m in (2, 3, 5, 6, 10):
            topo = Topology.by_group_count(30, m)
            k = min(3, min(topo.group_sizes))
            lat = two_layer_round_latency_ms(
                topo, k, PAPER_CNN_PARAMS, BANDWIDTH
            )
            rows.append((f"two-layer m={m} (k={k})", lat.total_ms, lat))
        return rows

    rows, wall = measure(sweep, warmup=1, repeats=5)
    lines = ["Round wall-clock at N=30, Fig. 5 CNN, 100 Mb/s uplinks",
             f"  {'configuration':<22}{'total s':>9}{'SAC s':>8}{'bcast s':>9}"]
    for label, total, lat in rows:
        sac = f"{lat.sac_ms / 1e3:8.2f}" if lat else f"{'-':>8}"
        bc = f"{lat.broadcast_ms / 1e3:8.2f}" if lat else f"{'-':>8}"
        lines.append(f"  {label:<22}{total / 1e3:>9.2f}{sac:>8}{bc:>9}")
    lines.append(f"  sweep wall: median {wall['median']:.2f} ms")
    emit("\n".join(lines))

    one = rows[0][1]
    best = min(total for _, total, lat in rows[1:])
    assert best < one / 3  # two-layer wins the clock, not just the meter
    # Latency is not monotone in m: huge m inflates the broadcast fan-out
    # at the FedAvg leader while tiny m inflates SAC — a real trade-off.
    totals = {label: total for label, total, _ in rows[1:]}
    assert totals["two-layer m=10 (k=3)"] < totals["two-layer m=2 (k=3)"]
