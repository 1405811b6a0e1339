"""Ablation — closed-form costs vs. bits measured on the simulated wire.

DESIGN.md decision 1: the functional SAC and the message-passing SAC
must agree with the analytic formulas; this bench sweeps (n, k) and
checks the wire traffic of the protocol actors, including the dropout
path (recovery fetches must not add model-sized traffic).
"""

import numpy as np
from conftest import emit

from repro.secure.fault_tolerant import expected_ft_sac_bits
from repro.secure.protocol import run_sac_protocol


def test_wire_bits_match_formulas(benchmark):
    size = 100

    def sweep():
        rows = []
        rng = np.random.default_rng(0)
        for n, k in [(3, 2), (3, 3), (5, 3), (5, 5), (7, 4)]:
            models = [rng.normal(size=size) for _ in range(n)]
            res = run_sac_protocol(models, k=k)
            rows.append((n, k, res.bits_sent, expected_ft_sac_bits(n, k, size)))
        return rows

    rows = benchmark(sweep)
    lines = ["SAC wire validation — measured vs {n(n-1)(n-k+1)+(k-1)}|w|",
             f"  {'n':>3}{'k':>3}{'measured':>12}{'formula':>12}"]
    for n, k, measured, formula in rows:
        lines.append(f"  {n:>3}{k:>3}{measured:>12.0f}{formula:>12.0f}")
        assert measured == formula
    emit("\n".join(lines))


def test_dropout_recovery_overhead_is_control_only(benchmark):
    """A mid-round dropout adds only a recovery request + one subtotal —
    no extra share-sized traffic."""
    size = 50

    def run():
        rng = np.random.default_rng(1)
        models = [rng.normal(size=size) for _ in range(5)]
        clean = run_sac_protocol(models, k=3, leader=2)
        dirty = run_sac_protocol(
            models, k=3, leader=2, crash_at={0: 20.0}, subtotal_timeout_ms=50.0
        )
        return clean, dirty

    clean, dirty = benchmark(run)
    assert dirty.outcome.ok
    subtotal_bits = size * 32
    overhead = dirty.bits_sent - clean.bits_sent
    emit(
        f"dropout overhead: {overhead:.0f} bits "
        f"(one {subtotal_bits}-bit subtotal + 64-bit request); "
        f"clean round: {clean.bits_sent:.0f} bits"
    )
    # Crashed peer's subtotal never arrives (-|w|); recovery adds a
    # request (+64) and the replica's subtotal (+|w|): net +64 bits.
    assert 0 <= overhead <= subtotal_bits + 128
