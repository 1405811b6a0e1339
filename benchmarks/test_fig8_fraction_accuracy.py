"""Fig. 8 — accuracy under partial subgroup participation (fraction p).

Paper: N = 20, n = 5 (four subgroups), p in {0.5, 1}; slow subgroups do
not hurt the global model much.  The paper's mean accuracy gap between
p = 0.5 and p = 1 and its band are ``ARTEFACTS["Fig. 8"]``.
"""

from conftest import emit

from repro.experiments import format_accuracy_table, run_fig8_fig9
from repro.experiments.fl_experiments import fig8_measured
from repro.experiments.paper_settings import ARTEFACTS

FIG8 = ARTEFACTS["Fig. 8"]


def test_fig8_fraction_accuracy(benchmark):
    runs = benchmark.pedantic(run_fig8_fig9, rounds=1, iterations=1)
    emit(format_accuracy_table(runs, "Fig. 8 — final accuracy vs fraction p"))

    measured = fig8_measured(runs)
    for name, paper in FIG8.paper.items():
        emit(f"{name}: {measured[name]:.2%} (paper: {paper:.2%})")
    # Slow subgroups must not collapse accuracy.
    assert not FIG8.misses(measured)
    # p=0.5 still learns: better than random guessing on 10 classes.
    by = {(r.label, r.distribution): r for r in runs}
    assert by[("p=0.5", "iid")].final_accuracy > 0.3
