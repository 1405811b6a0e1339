"""Fig. 14 — cost per aggregation under k-n settings vs. the SAC baseline.

The paper's headline ratios at N = 30, its baseline cost at N = 50 and
their bands are ``ARTEFACTS["Fig. 14"]``.
"""

from conftest import emit

from repro.experiments import format_fig14, run_fig14
from repro.experiments.cost_experiments import fig14_measured
from repro.experiments.paper_settings import ARTEFACTS


def test_fig14_cost_under_kn_settings(benchmark):
    series = benchmark(run_fig14)
    emit(format_fig14(series))

    base = {int(p.x): p.gigabits for p in series["baseline (n=N)"]}
    s33 = {int(p.x): p.gigabits for p in series["3-3"]}
    s23 = {int(p.x): p.gigabits for p in series["2-3"]}
    s55 = {int(p.x): p.gigabits for p in series["5-5"]}
    s35 = {int(p.x): p.gigabits for p in series["3-5"]}

    # The paper's ratios at N = 30 and baseline at N = 50 (Sec. VII-B).
    assert not ARTEFACTS["Fig. 14"].misses(fig14_measured(series))
    # Fault tolerance costs more than plain n-out-of-n, but every
    # two-layer setting beats the baseline at every N.
    for n_total in (10, 20, 30, 40, 50):
        assert s23[n_total] > s33[n_total]
        assert s35[n_total] > s55[n_total]
        for setting in (s33, s23, s55, s35):
            assert setting[n_total] < base[n_total]
    # The advantage grows with N (scalability).
    assert base[50] / s33[50] > base[10] / s33[10]
