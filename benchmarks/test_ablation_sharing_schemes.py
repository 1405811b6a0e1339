"""For ROADMAP "What a coalition learns": sharing-scheme trade-offs.

1. Communication: replicated additive k-out-of-n (the paper) vs. Shamir
   t-out-of-n (one field element per peer) at the Fig. 5 model size.
2. Wall-clock: a 5-peer SAC round on a 100 Mb/s network as the payload
   grows — with a bandwidth model, the k-out-of-n replication factor
   directly inflates round latency.
"""

import numpy as np
import pytest
from conftest import emit

from repro.nn.zoo import PAPER_CNN_PARAMS
from repro.secure.fault_tolerant import expected_ft_sac_bits
from repro.secure.protocol import run_sac_protocol
from repro.secure.shamir import shamir_cost_bits


def test_replicated_vs_shamir_cost(benchmark):
    def table():
        rows = []
        for n, k in [(3, 2), (5, 3), (5, 4), (7, 4)]:
            # 64-bit shares on both sides for a fair comparison.
            replicated = expected_ft_sac_bits(
                n, k, PAPER_CNN_PARAMS, bits_per_param=64
            )
            shamir = shamir_cost_bits(n, k, PAPER_CNN_PARAMS, bits_per_param=64)
            rows.append((n, k, replicated / 1e9, shamir / 1e9))
        return rows

    rows = benchmark(table)
    lines = ["Sharing-scheme cost per subgroup round (Gb, 64-bit shares)",
             f"  {'n':>3}{'k':>3}{'replicated':>12}{'Shamir':>10}{'saving':>9}"]
    for n, k, rep, sha in rows:
        lines.append(f"  {n:>3}{k:>3}{rep:>12.2f}{sha:>10.2f}{rep / sha:>8.2f}x")
        # Shamir always sends one share per peer; replicated sends n-k+1.
        assert sha < rep
    emit("\n".join(lines))


def test_round_latency_vs_group_size_on_bandwidth(benchmark):
    """Beyond-paper: SAC round wall-clock vs. n on a 100 Mb/s network."""
    size = 10_000  # params per model (kept small; latency scales linearly)

    def sweep():
        rng = np.random.default_rng(0)
        out = []
        for n in (3, 5, 7):
            models = [rng.normal(size=size) for _ in range(n)]
            k = (n + 1) // 2 + 1
            res = run_sac_protocol(
                models, k=k, bandwidth_bps=100e6, delay_ms=15.0
            )
            assert res.outcome.ok
            out.append((n, k, res.finish_time_ms))
        return out

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["SAC round latency on 100 Mb/s links (10k-param model)",
             f"  {'n':>3}{'k':>3}{'finish ms':>11}"]
    for n, k, t in rows:
        lines.append(f"  {n:>3}{k:>3}{t:>11.1f}")
    emit("\n".join(lines))
    # Larger subgroups pay more wall-clock (bigger bundles, more peers).
    times = [t for _, _, t in rows]
    assert times[0] < times[-1]
