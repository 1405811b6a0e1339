"""For ROADMAP "A leader crash mid-round, on the wire": restart vs. FT-SAC.

The paper motivates k-out-of-n SAC by noting plain SAC "must be
restarted from the beginning with remaining peers" after any dropout.
This bench quantifies that: with one random mid-round dropout per round
in one subgroup, compare (a) plain n-out-of-n (subgroup loses the round
and pays the wasted share traffic) against (b) 2-out-of-3 fault-tolerant
SAC (round completes, crashed model still counted).
"""

import numpy as np
from conftest import emit

from repro.core import SessionConfig, run_session
from repro.data import synthetic_blobs
from repro.nn import mlp_classifier

ROUNDS = 12


def _run(threshold):
    dataset = synthetic_blobs(
        n_train=600, n_test=150, n_features=12, rng=np.random.default_rng(1),
        separation=2.5,
    )

    def factory(rng):
        return mlp_classifier(12, rng=rng, hidden=(16,))

    rng = np.random.default_rng(7)
    # One dropout per round: a random non-leader member of group 0.
    schedule = {
        rnd: {0: {int(rng.integers(1, 3))}} for rnd in range(ROUNDS)
    }
    cfg = SessionConfig(
        n_peers=9, rounds=ROUNDS, group_size=3, threshold=threshold,
        lr=1e-2, seed=2, dropout_schedule=schedule,
    )
    return run_session(factory, dataset, cfg)


def test_restart_vs_fault_tolerant(benchmark):
    def run():
        return _run(None), _run(2)

    plain, ft = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "Per-round dropout in subgroup 0 "
        f"({ROUNDS} rounds):\n"
        f"  plain n-out-of-n : final acc {plain.final_accuracy(tail=3):.2%}, "
        f"traffic {plain.comm_bits.sum() / 1e6:.2f} Mb "
        f"(group 0 loses every round)\n"
        f"  2-out-of-3 FT-SAC: final acc {ft.final_accuracy(tail=3):.2%}, "
        f"traffic {ft.comm_bits.sum() / 1e6:.2f} Mb "
        f"(group 0 completes every round)"
    )
    # FT mode never drops group 0, so each round aggregates all 9 peers;
    # plain mode wastes group 0's share traffic AND loses its models.
    assert np.isfinite(plain.accuracy).all()
    assert np.isfinite(ft.accuracy).all()
    # Both still learn, but FT-SAC aggregates strictly more data per
    # round; assert it is at least on par.
    assert ft.final_accuracy(tail=3) >= plain.final_accuracy(tail=3) - 0.02
