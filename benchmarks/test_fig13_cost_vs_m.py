"""Fig. 13 — total communication cost per aggregation vs. m (N = 30).

The paper's values and band are ``ARTEFACTS["Fig. 13"]``: about
one-tenth of one-layer SAC at m = 6; the cost stops improving for
m >= 10 (n <= 3).
"""

from conftest import emit

from repro.experiments import format_fig13, run_fig13
from repro.experiments.cost_experiments import fig13_measured
from repro.experiments.paper_settings import ARTEFACTS


def test_fig13_cost_vs_group_count(benchmark):
    points = benchmark(run_fig13)
    emit(format_fig13(points))

    by_m = {int(p.x): p.gigabits for p in points}
    # The paper's Gb at m = 6 and its ratio to one-layer SAC.
    assert not ARTEFACTS["Fig. 13"].misses(fig13_measured(points))
    # Cost decreases sharply from m=1 to m=6 ...
    assert by_m[1] > by_m[2] > by_m[3] > by_m[6]
    # ... and stops decreasing meaningfully for m >= 10 (n <= 3).
    assert by_m[10] < by_m[6]
    assert min(by_m[m] for m in range(10, 31)) > 0.3 * by_m[10]
