"""Fig. 11 — Fig. 10 plus the new leader joining the FedAvg group.

The paper's means and band are ``ARTEFACTS["Fig. 11"]``; the downtime
stays far below one FL round.
"""

from conftest import emit

from repro.experiments import format_recovery_table, run_fig10, run_fig11
from repro.experiments.paper_settings import ARTEFACTS
from repro.experiments.raft_experiments import mean_by_range

FIG11 = ARTEFACTS["Fig. 11"]


def test_fig11_join_fedavg_group(benchmark):
    stats11 = benchmark.pedantic(run_fig11, rounds=1, iterations=1)
    stats10 = run_fig10()
    emit(format_recovery_table(stats11, "Fig. 11 — re-election + FedAvg join"))

    m10 = {s.timeout_base_ms: s.mean_ms for s in stats10}
    m11 = {s.timeout_base_ms: s.mean_ms for s in stats11}
    deltas = {base: m11[base] - m10[base] for base in m10}
    fig10 = ARTEFACTS["Fig. 10"].paper
    emit(
        "join delta over Fig. 10 per T: "
        + ", ".join(f"T={int(b)}: +{d:.1f}ms" for b, d in sorted(deltas.items()))
        + " (paper: "
        + " / ".join(f"+{FIG11.paper[k] - fig10[k]:.1f}" for k in fig10)
        + ")"
    )
    # Joining costs extra but bounded time.
    for base, delta in deltas.items():
        assert 20.0 < delta < 250.0
    # Same monotone trend as Fig. 10.
    assert m11[50.0] < m11[100.0] < m11[150.0] < m11[200.0]
    # Inside the manifest's band around the paper's means.
    assert not FIG11.misses(mean_by_range(stats11))
