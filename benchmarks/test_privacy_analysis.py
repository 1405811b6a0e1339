"""For ROADMAP "What a coalition learns": per-share leakage of the sharing schemes.

"However, security analysis for the aggregated model is out of the
scope in this paper" (Sec. IV-D).  This bench fills the per-share half
of that gap: what does a single semi-honest peer learn from one received
share, under the paper's Alg. 1 vs. hiding constructions?
"""

import numpy as np
from conftest import emit

from repro.analysis.privacy import (
    estimate_leaked_bits,
    ring_share_correlation,
    share_secret_correlation,
    sign_leakage,
)
from repro.secure.additive import divide, divide_zero_sum


def test_per_share_leakage(benchmark):
    def run():
        rng = np.random.default_rng(0)
        alg1 = share_secret_correlation(divide, 3, rng, trials=1500)
        zero_sum = share_secret_correlation(divide_zero_sum, 3, rng, trials=1500)
        ring = ring_share_correlation(3, rng, trials=1500)
        sign = sign_leakage(3, rng, trials=1500)
        return alg1, zero_sum, ring, sign

    alg1, zero_sum, ring, sign = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "Per-share leakage to a semi-honest peer (n=3, one share observed):\n"
        f"  {'scheme':<24}{'corr(share, secret)':>21}{'~bits/coord':>13}\n"
        f"  {'Alg.1 (paper)':<24}{alg1:>21.3f}"
        f"{estimate_leaked_bits(alg1):>13.2f}\n"
        f"  {'zero-sum masking':<24}{zero_sum:>21.3f}"
        f"{estimate_leaked_bits(zero_sum):>13.3f}\n"
        f"  {'fixed-point ring':<24}{ring:>21.3f}"
        f"{estimate_leaked_bits(ring):>13.3f}\n"
        f"  Alg.1 sign leakage: share reveals the secret's sign "
        f"{sign:.1%} of the time"
    )
    assert alg1 > 0.8 and sign > 0.95       # the paper's scheme leaks
    assert abs(zero_sum) < 0.1              # masking hides
    assert abs(ring) < 0.1                  # ring sharing hides
