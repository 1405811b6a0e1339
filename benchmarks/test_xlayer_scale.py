"""X-layer wave engine vs per-item replay at 10^5 simulated peers.

The acceptance benchmark of the vectorized delivery-wave core: one
X-layer round at depth 10 (n=4, N=118,096 peers, ~708k wire messages)
through the wave engine and through the per-item replay model
(``tests/simnet/per_item.py``: one heap entry per message).  Sim-side
results must be bit-identical and pinned to the Eq. 10 closed forms; the
wave engine must beat the per-item replay by >= 10x wall-clock.  Wall
numbers are printed; the cross-PR comparison is the ``xlayer_wide``
workload of ``bench/run.py``.

Not part of tier-1 (``testpaths`` excludes ``benchmarks/``): the
speedup assertion compares two in-process measurements, which is robust
on any machine, but the per-item leg takes ~10 s.  Run from the repo
root (``PYTHONPATH=src python -m pytest ...``) so ``tests`` imports.
"""

import time

import numpy as np
import pytest
from conftest import emit

from repro.core import (
    MultiLayerTopology,
    multi_layer_cost_bits,
    multi_layer_message_count,
    multi_layer_round_latency_ms,
    run_xlayer_wire_round,
)
from repro.simnet import FixedLatency
from tests.simnet.per_item import per_item

N, DEPTH, DIM = 4, 10, 8
DELAY_MS = 15.0
MIN_SPEEDUP = 10.0


def test_wave_vs_scalar_at_1e5_peers():
    topo = MultiLayerTopology(N, DEPTH)
    assert topo.n_peers >= 100_000
    models = np.random.default_rng(0).normal(size=(topo.n_peers, DIM))
    latency = FixedLatency(DELAY_MS)

    t0 = time.perf_counter()
    wave = run_xlayer_wire_round(topo, models, latency=latency)
    wall_wave = time.perf_counter() - t0

    with per_item():
        t0 = time.perf_counter()
        item = run_xlayer_wire_round(topo, models, latency=latency)
        wall_item = time.perf_counter() - t0

    # Same sim fingerprint: identical results, bit for bit.
    assert wave.finish_time_ms == item.finish_time_ms
    assert wave.bits_sent == item.bits_sent
    assert wave.messages_sent == item.messages_sent
    np.testing.assert_array_equal(wave.average, item.average)

    # ... pinned to the closed forms.
    assert wave.bits_sent == multi_layer_cost_bits(N, DEPTH, DIM)
    assert wave.messages_sent == multi_layer_message_count(N, DEPTH)
    assert wave.finish_time_ms == multi_layer_round_latency_ms(DEPTH, DELAY_MS)

    speedup = wall_item / wall_wave
    emit(
        f"xlayer_scale: N={topo.n_peers:,} peers, "
        f"{wave.messages_sent:,} messages\n"
        f"  wave   {wall_wave * 1e3:9.1f} ms "
        f"({wave.heap_stats['events_processed']:,} heap events)\n"
        f"  item   {wall_item * 1e3:9.1f} ms "
        f"({item.heap_stats['events_processed']:,} heap events)\n"
        f"  speedup {speedup:.1f}x  "
        f"({topo.n_peers / wall_wave:,.0f} peers/s, "
        f"{wave.messages_sent / wall_wave:,.0f} msgs/s)"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"wave engine only {speedup:.1f}x faster than per-item replay "
        f"(need >= {MIN_SPEEDUP}x)"
    )
