"""For ROADMAP "Ring arithmetic on every path": float Alg. 1 vs. ring sharing.

The paper shares IEEE floats (shares are random *fractions* of the
secret, leaking sign/magnitude); production secure aggregation shares
fixed-point integers uniform over a ring (information-theoretically
hiding).  This bench quantifies the two costs of doing it right: the
quantization error of the recovered average and the wire-width change
(32-bit floats -> 64-bit ring elements).
"""

import numpy as np
from conftest import emit

from repro.secure import sac_average, sac_average_fixed_point
from repro.secure.sac import DEFAULT_BITS_PER_PARAM

N_PEERS = 5
SIZE = 20_000


def test_float_vs_fixed_point_sac(benchmark):
    rng = np.random.default_rng(0)
    models = [rng.normal(size=SIZE) for _ in range(N_PEERS)]
    true_mean = np.mean(models, axis=0)

    def run():
        float_avg = sac_average(models, np.random.default_rng(1)).average
        results = {}
        for frac_bits in (8, 16, 24, 32):
            fp_avg = sac_average_fixed_point(
                models, np.random.default_rng(1), frac_bits=frac_bits
            )
            results[frac_bits] = float(np.abs(fp_avg - true_mean).max())
        return float_avg, results

    float_avg, errors = benchmark.pedantic(run, rounds=1, iterations=1)
    float_err = float(np.abs(float_avg - true_mean).max())

    lines = [
        "Float (paper Alg. 1) vs fixed-point ring sharing — max |error|",
        f"  {'scheme':<22}{'max error':>14}{'bits/param':>12}{'hiding':>10}",
        f"  {'float Alg.1':<22}{float_err:>14.2e}"
        f"{DEFAULT_BITS_PER_PARAM:>12}{'leaky':>10}",
    ]
    for frac_bits, err in errors.items():
        lines.append(
            f"  {f'ring frac_bits={frac_bits}':<22}{err:>14.2e}{64:>12}{'perfect':>10}"
        )
    emit("\n".join(lines))

    # Quantization error halves per extra fractional bit and is already
    # negligible at 24 bits; float roundoff is of similar magnitude.
    assert errors[8] > errors[16] > errors[24]
    assert errors[24] < 1e-6
