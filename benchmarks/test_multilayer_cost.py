"""Sec. VII-C — X-layer aggregation: cost table and measured validation.

Eq. 10: C_total = (N - 1)(n + 2)|w| — linear in N; verified here against
bits actually counted while aggregating over the X-layer tree, and on
the manifest's tree against its band (``ARTEFACTS["Eq. 10"]``).
"""

import numpy as np
import pytest
from conftest import emit

from repro.core import MultiLayerTopology, multi_layer_aggregate, multi_layer_cost_bits
from repro.experiments import format_multilayer, run_multilayer_table
from repro.experiments.cost_experiments import eq10_measured
from repro.experiments.paper_settings import ARTEFACTS


def test_multilayer_cost_table(benchmark):
    points = benchmark(run_multilayer_table)
    emit(format_multilayer(points))
    # Per-peer cost is bounded by (n+2)|w| — overall O(N).
    from repro.core.costs import multi_layer_total_peers
    from repro.nn.zoo import PAPER_CNN_PARAMS

    w_gb = PAPER_CNN_PARAMS * 32 / 1e9
    for p in points:
        n_peers = multi_layer_total_peers(3, int(p.x))
        assert p.gigabits / n_peers <= (3 + 2) * w_gb


def test_multilayer_measured_matches_eq10(benchmark):
    """Aggregate real vectors over an X=3, n=3 tree; measured bits == Eq. 10."""

    def run():
        topo = MultiLayerTopology(3, 3)
        rng = np.random.default_rng(0)
        models = [rng.normal(size=64) for _ in range(topo.n_peers)]
        return topo, multi_layer_aggregate(topo, models, rng), models

    topo, result, models = benchmark(run)
    assert result.bits_sent == multi_layer_cost_bits(3, 3, 64)
    assert not ARTEFACTS["Eq. 10"].misses(eq10_measured())
    np.testing.assert_allclose(result.average, np.mean(models, axis=0), rtol=1e-9)
    emit(
        f"X=3, n=3 tree: N={topo.n_peers}, measured bits == Eq.10 "
        f"({result.bits_sent:.0f} bits for |w|=64 params)"
    )
