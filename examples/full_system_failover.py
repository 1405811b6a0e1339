#!/usr/bin/env python
"""The complete paper system: FL training over two-layer Raft, with crashes.

Nine peers in three subgroups train a shared model using 2-out-of-3 SAC
plus FedAvg, with leaders supplied by two-layer Raft.  Mid-training we
crash a subgroup leader AND the FedAvg leader; Raft re-elects, the new
leaders are absorbed into the FedAvg layer, and training continues — the
paper's whole pitch in one script.

Run:  python examples/full_system_failover.py

Besides the console narrative, the script writes ``BENCH_round.json``
into the working directory: the run's seed-exact totals under ``sim``
and, under ``series``, one machine-readable record per round (wall
latency, bits by protocol kind, election count, accuracy), so runs can
be diffed without scraping stdout.
"""

import json
import time

import numpy as np

from repro.data import synthetic_blobs
from repro.nn import mlp_classifier
from repro.p2pfl import P2PFLConfig, P2PFLSystem

BENCH_PATH = "BENCH_round.json"
SEED = 5


def main() -> None:
    dataset = synthetic_blobs(
        n_train=900, n_test=200, n_features=12,
        rng=np.random.default_rng(SEED), separation=2.5,
    )

    def factory(rng: np.random.Generator):
        return mlp_classifier(12, rng=rng, hidden=(24,))

    # Five subgroups: the FedAvg layer keeps its quorum through two
    # sequential leader crashes (membership only grows — Sec. VII-D —
    # so with three subgroups a second leader crash would wedge it).
    system = P2PFLSystem(
        factory,
        dataset,
        P2PFLConfig(n_peers=15, group_size=3, threshold=2, lr=1e-2, seed=SEED),
    )
    print(f"Topology: {system.topology.group_sizes} peers per subgroup")
    print(f"Raft leaders: {system.current_leaders()}, "
          f"FedAvg leader: {system.raft.fed_leader()}\n")

    rows: list[dict] = []

    def snapshot() -> tuple[dict, int]:
        return (
            dict(system.raft.trace.by_kind()),
            sum(1 for e in system.raft.events
                if e.kind in ("sub_leader", "fed_leader")),
        )

    def report(label: str, rounds: int, phase: str) -> None:
        print(label)
        for _ in range(rounds):
            bits_before, elections_before = snapshot()
            t0 = time.perf_counter()
            m = system.run_round()
            latency_ms = (time.perf_counter() - t0) * 1e3
            bits_after, elections_after = snapshot()
            leaders = system.current_leaders()
            print(f"  round {m.round:>2}: acc {m.test_accuracy:.2%}, "
                  f"leaders {leaders}, "
                  f"{m.comm_bits / 1e6:.2f} Mb")
            rows.append({
                "round": m.round,
                "phase": phase,
                "latency_ms": latency_ms,
                "comm_bits": m.comm_bits,
                "bits_by_kind": {
                    k: v - bits_before.get(k, 0.0)
                    for k, v in bits_after.items()
                    if v - bits_before.get(k, 0.0) > 0
                },
                "elections": elections_after - elections_before,
                "test_accuracy": m.test_accuracy,
                "train_loss": m.train_loss,
            })

    report("Phase 1 — healthy network:", 4, "healthy")

    victim = system.current_leaders()[1]
    print(f"\n*** crashing subgroup-1 leader (peer {victim}) ***")
    system.crash_peer(victim)
    report("Phase 2 — subgroup 1 re-elects and rejoins:", 4, "sub_leader_crash")

    fed = system.raft.fed_leader()
    print(f"\n*** crashing the FedAvg leader (peer {fed}) ***")
    system.crash_peer(fed)
    report("Phase 3 — both layers recover:", 4, "fed_leader_crash")

    final_accuracy = system.history.final_accuracy(tail=3)
    print(f"\nFinal accuracy: {final_accuracy:.2%}")
    print(f"Crashed peers excluded from training: "
          f"{sorted(system.crashed_peers())}")
    print(f"FedAvg leader now: peer {system.raft.fed_leader()}")

    record = {
        "id": "full_system_failover",
        "seed": SEED,
        "params": {"n_peers": 15, "group_size": 3, "threshold": 2,
                   "rounds_per_phase": 4},
        # Deterministic for a fixed seed; ``latency_ms`` in the series is
        # the only measurement.
        "sim": {
            "rounds": len(rows),
            "comm_bits": sum(r["comm_bits"] for r in rows),
            "elections": sum(r["elections"] for r in rows),
            "final_accuracy": final_accuracy,
            "crashed_peers": len(system.crashed_peers()),
        },
        "series": rows,
    }
    with open(BENCH_PATH, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nPer-round record: {BENCH_PATH}")


if __name__ == "__main__":
    main()
