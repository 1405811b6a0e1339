"""For ROADMAP "Ring arithmetic on every path": Alg. 1 split vs. zero-sum masks.

DESIGN.md decision 3: both constructions reconstruct exactly; the
zero-sum variant's masks are statistically independent of the secret.
This bench compares their throughput at the paper's model size
(1,250,858 float64 parameters).
"""

import numpy as np
import pytest
from conftest import emit

from repro.nn.zoo import PAPER_CNN_PARAMS
from repro.secure.additive import divide, divide_zero_sum

N_SHARES = 5


@pytest.fixture(scope="module")
def weight_vector():
    return np.random.default_rng(0).normal(size=PAPER_CNN_PARAMS)


def test_divide_alg1_throughput(benchmark, weight_vector):
    rng = np.random.default_rng(1)
    shares = benchmark(divide, weight_vector, N_SHARES, rng)
    np.testing.assert_allclose(shares.sum(axis=0), weight_vector, rtol=1e-9)
    emit(f"Alg.1 divide: {N_SHARES} shares of {PAPER_CNN_PARAMS:,} params")


def test_divide_zero_sum_throughput(benchmark, weight_vector):
    rng = np.random.default_rng(2)
    shares = benchmark(divide_zero_sum, weight_vector, N_SHARES, rng)
    np.testing.assert_allclose(shares.sum(axis=0), weight_vector, atol=1e-6)
    emit(f"zero-sum divide: {N_SHARES} shares of {PAPER_CNN_PARAMS:,} params")
