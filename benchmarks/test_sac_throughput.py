"""Microbenchmarks — SAC arithmetic at the paper's model size.

Not a paper figure: performance characterization of the substrate (the
HPC guides' "measure before optimizing").  One SAC round over the
1.25M-parameter weight vector, functional and fault-tolerant forms.

Correctness (the reconstructed average) is asserted; wall-clock numbers
are measured with warmup + median-of-repeats and printed — the
``paper_round`` workload of ``bench/run.py`` gates this throughput
across PRs, not a flaky in-test threshold.
"""

import numpy as np
import pytest
from conftest import emit, measure

from repro.fl import fedavg
from repro.nn.zoo import PAPER_CNN_PARAMS
from repro.secure import fault_tolerant_sac, sac_average

N_PEERS = 5
#: repeats are modest: each round moves 5 x 1.25M doubles.
REPEATS = 3


@pytest.fixture(scope="module")
def peer_models():
    rng = np.random.default_rng(0)
    return [rng.normal(size=PAPER_CNN_PARAMS) for _ in range(N_PEERS)]


def test_sac_round_throughput(peer_models):
    result, wall = measure(
        lambda: sac_average(peer_models, np.random.default_rng(1)),
        warmup=1, repeats=REPEATS,
    )
    np.testing.assert_allclose(
        result.average, np.mean(peer_models, axis=0), rtol=1e-8
    )
    emit(f"one-layer SAC round, {N_PEERS} peers x {PAPER_CNN_PARAMS:,} "
         f"params: median {wall['median']:.1f} ms")


def test_ft_sac_round_throughput(peer_models):
    result, wall = measure(
        lambda: fault_tolerant_sac(peer_models, 3, np.random.default_rng(2)),
        warmup=1, repeats=REPEATS,
    )
    np.testing.assert_allclose(
        result.average, np.mean(peer_models, axis=0), rtol=1e-8
    )
    emit(f"3-out-of-{N_PEERS} SAC round at {PAPER_CNN_PARAMS:,} params: "
         f"median {wall['median']:.1f} ms")


def test_fedavg_throughput(peer_models):
    weights = [float(i + 1) for i in range(N_PEERS)]
    out, wall = measure(
        lambda: fedavg(peer_models, weights), warmup=1, repeats=REPEATS,
    )
    assert out.shape == (PAPER_CNN_PARAMS,)
    emit(f"FedAvg over {N_PEERS} x {PAPER_CNN_PARAMS:,}-param models: "
         f"median {wall['median']:.1f} ms")
