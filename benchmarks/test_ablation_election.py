"""For ROADMAP "Figs. 11–12 to the paper's numbers": paper vs. textbook election.

DESIGN.md decision 4: the paper's sequential follower+candidate timeouts
(term incremented at candidacy) produce the ~2x(2T) election times of
Fig. 10; textbook Raft (immediate election at candidacy) is roughly 2x
faster.  This bench quantifies that trade-off.
"""

import numpy as np
from conftest import emit

from repro.core import Topology
from repro.twolayer_raft import run_trials, subgroup_leader_recovery_trial

TOPO = Topology.by_group_count(25, 5)
TRIALS = 15


def _mean_election(pre_wait: bool, timeout_base: float) -> float:
    res = run_trials(
        subgroup_leader_recovery_trial,
        TRIALS,
        timeout_base_ms=timeout_base,
        topology=TOPO,
        pre_election_wait=pre_wait,
    )
    return float(np.mean([r.sub_elect_ms for r in res if r.sub_elect_ms]))


def test_paper_vs_textbook_election_semantics(benchmark):
    def run():
        return {
            (mode, base): _mean_election(mode, base)
            for mode in (True, False)
            for base in (50.0, 100.0)
        }

    means = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Election-semantics ablation (mean re-election ms)",
             f"  {'T':>6}{'paper':>10}{'textbook':>10}{'speedup':>9}"]
    for base in (50.0, 100.0):
        paper = means[(True, base)]
        textbook = means[(False, base)]
        lines.append(
            f"  {base:>6.0f}{paper:>10.1f}{textbook:>10.1f}"
            f"{paper / textbook:>8.2f}x"
        )
        # The paper's semantics are measurably slower (that's the point
        # of the ablation) but both recover correctly.
        assert textbook < paper
    emit("\n".join(lines))
