"""Fig. 12 — full recovery from a crashed FedAvg leader.

Both the FedAvg layer and the victim's subgroup re-elect, then the new
subgroup leader joins the FedAvg group; availability is maintained.
The paper's means and band are ``ARTEFACTS["Fig. 12"]``.
"""

from conftest import emit

from repro.experiments import format_recovery_table, run_fig11, run_fig12
from repro.experiments.paper_settings import ARTEFACTS
from repro.experiments.raft_experiments import mean_by_range


def test_fig12_fedavg_leader_recovery(benchmark):
    stats12 = benchmark.pedantic(run_fig12, rounds=1, iterations=1)
    emit(format_recovery_table(stats12, "Fig. 12 — FedAvg leader crash, full recovery"))

    m12 = {s.timeout_base_ms: s.mean_ms for s in stats12}
    # Monotone in T, like Figs. 10-11.
    assert m12[50.0] < m12[100.0] < m12[150.0] < m12[200.0]
    # Full recovery costs at least a subgroup re-election...
    stats11 = run_fig11()
    m11 = {s.timeout_base_ms: s.mean_ms for s in stats11}
    for base in m12:
        # ...and stays within a small multiple of the Fig. 11 time.
        assert m12[base] > 0.5 * m11[base]
        assert m12[base] < 2.5 * m11[base]
    # Downtime far below one FL round (a CIFAR-10 round takes seconds).
    assert max(m12.values()) < 3_000.0
    # Inside the manifest's band around the paper's means.
    assert not ARTEFACTS["Fig. 12"].misses(mean_by_range(stats12))
