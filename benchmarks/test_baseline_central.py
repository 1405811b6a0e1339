"""For ROADMAP "A leader crash mid-round, on the wire": central server vs. P2P.

The paper's core motivation (Sec. I) as an experiment: crash the
aggregator mid-training.  The central server's global model freezes;
the two-layer system re-elects leaders via Raft and keeps improving.
"""

import numpy as np
from conftest import emit

from repro.data import synthetic_blobs
from repro.fl.central import CentralConfig, run_central_session
from repro.nn import mlp_classifier
from repro.p2pfl import P2PFLConfig, P2PFLSystem

ROUNDS = 14
CRASH_AT = 5


def test_central_spof_vs_p2p_failover(benchmark):
    dataset = synthetic_blobs(
        n_train=1000, n_test=250, n_features=12,
        rng=np.random.default_rng(0), separation=2.0,
    )

    def factory(rng):
        return mlp_classifier(12, rng=rng, hidden=(24,))

    def run():
        central = run_central_session(
            factory, dataset,
            CentralConfig(n_clients=9, rounds=ROUNDS, lr=1e-2, seed=4,
                          server_crash_round=CRASH_AT),
        )
        p2p = P2PFLSystem(
            factory, dataset,
            P2PFLConfig(n_peers=9, group_size=3, threshold=2, lr=1e-2, seed=4),
        )
        p2p.run_rounds(CRASH_AT)
        p2p.crash_peer(p2p.raft.fed_leader())  # the P2P "server" dies too
        p2p.run_rounds(ROUNDS - CRASH_AT)
        return central, p2p.history

    central, p2p = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        f"Aggregator crash at round {CRASH_AT} ({ROUNDS} rounds total):\n"
        f"  central server : acc {central.accuracy[CRASH_AT - 1]:.2%} at crash "
        f"-> {central.accuracy[-1]:.2%} final (frozen)\n"
        f"  two-layer P2P  : acc {p2p.accuracy[CRASH_AT - 1]:.2%} at crash "
        f"-> {p2p.accuracy[-1]:.2%} final (kept training)"
    )
    # Central: frozen at the crash-time model.
    np.testing.assert_allclose(central.accuracy[CRASH_AT:], central.accuracy[CRASH_AT])
    # P2P: keeps improving (or already saturated above the frozen model).
    assert p2p.accuracy[-1] >= central.accuracy[-1] - 0.01
    assert (p2p.comm_bits[-3:] > 0).all()  # aggregation kept happening
