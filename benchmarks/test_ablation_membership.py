"""For ROADMAP "Raft under the same discipline": add-only vs. seat replacement.

Sec. VII-D: the paper only ever *adds* replacement leaders to the FedAvg
configuration, so the quorum grows with every crash and a 3-subgroup
system wedges after two sequential leader crashes.  The
``remove_replaced_leaders`` extension evicts the replaced seat and keeps
the layer at m members indefinitely.
"""

from conftest import emit

from repro.core import Topology
from repro.twolayer_raft import TwoLayerRaftSystem


def run_double_crash(cleanup: bool, seed: int) -> tuple[bool, int]:
    """Returns (fed leader alive after 2 crashes, fed member count)."""
    system = TwoLayerRaftSystem(
        Topology.by_group_count(9, 3),
        timeout_base_ms=50.0,
        seed=seed,
        remove_replaced_leaders=cleanup,
    )
    system.stabilize()
    system.run_for(1_000.0)
    fed = system.fed_leader()
    gi = next(
        g for g in range(3) if system.subgroup_leader(g) not in (None, fed)
    )
    system.crash(system.subgroup_leader(gi))
    system.run_for(6_000.0)
    fed = system.fed_leader()
    if fed is None:
        return False, -1
    system.crash(fed)
    system.run_for(8_000.0)
    new_fed = system.fed_leader()
    size = len(system.fed_members_of(new_fed)) if new_fed is not None else -1
    return new_fed is not None, size


def test_membership_cleanup_ablation(benchmark):
    def run():
        return {
            mode: [run_double_crash(mode, seed) for seed in range(4)]
            for mode in (False, True)
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    paper_survival = sum(ok for ok, _ in results[False])
    cleanup_survival = sum(ok for ok, _ in results[True])
    emit(
        "Membership ablation (3 subgroups, two sequential leader crashes):\n"
        f"  paper add-only : {paper_survival}/4 runs keep a FedAvg leader\n"
        f"  seat-replacement: {cleanup_survival}/4 runs keep a FedAvg leader "
        f"(membership stays at {results[True][0][1]} seats)"
    )
    assert paper_survival == 0      # the documented Sec. VII-D limit
    assert cleanup_survival == 4    # the extension removes it
    assert all(size == 3 for ok, size in results[True] if ok)
