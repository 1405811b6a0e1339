"""Fig. 10 — time to detect a crashed subgroup leader and elect a new one.

The paper's setting, means and band are ``ARTEFACTS["Fig. 10"]``: about
twice the maximum follower timeout for each U(T, 2T) range.
"""

from conftest import emit

from repro.experiments import format_recovery_table, run_fig10
from repro.experiments.paper_settings import ARTEFACTS
from repro.experiments.raft_experiments import mean_by_range


def test_fig10_subgroup_leader_election(benchmark):
    stats = benchmark.pedantic(run_fig10, rounds=1, iterations=1)
    emit(format_recovery_table(stats, "Fig. 10 — subgroup leader re-election"))

    means = {s.timeout_base_ms: s.mean_ms for s in stats}
    # Monotone in the timeout base, as in the figure.
    assert means[50.0] < means[100.0] < means[150.0] < means[200.0]
    # "About twice the maximum follower timeout" (paper's own reading):
    # the mean lands in [2T, 6T] for every T.
    for base, mean in means.items():
        assert 2 * base < mean < 6 * base
    # Inside the manifest's band around the paper's means.
    assert not ARTEFACTS["Fig. 10"].misses(mean_by_range(stats))
