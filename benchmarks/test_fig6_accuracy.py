"""Fig. 6 — test accuracy: two-layer SAC (n=3, 5) vs. one-layer SAC.

Paper: N = 10 peers, 1000 rounds, CIFAR-10 CNN; the two-layer curves
coincide with the baseline, IID > non-IID(5%) > non-IID(0%).  Here: same
protocol stack over the synthetic workload (see DESIGN.md
substitutions); the *relationships* are asserted, and the paper's
accuracies (``ARTEFACTS["Fig. 6"]``, no band) are printed beside ours.
"""

import numpy as np
from conftest import emit

from repro.experiments import format_accuracy_table, run_fig6_fig7
from repro.experiments.fl_experiments import fig6_measured
from repro.experiments.paper_settings import ARTEFACTS


def test_fig6_accuracy(benchmark):
    runs = benchmark.pedantic(run_fig6_fig7, rounds=1, iterations=1)
    emit(format_accuracy_table(runs, "Fig. 6 — final test accuracy"))
    measured = fig6_measured(runs)
    for name, paper in ARTEFACTS["Fig. 6"].paper.items():
        emit(f"{name}: {measured[name]:.2%} (paper, CIFAR-10: {paper:.2%})")

    by = {(r.label, r.distribution): r for r in runs}
    # Two-layer == baseline for every n and distribution (the curves
    # coincide in the figure).
    for dist in ("iid", "noniid-5", "noniid-0"):
        base = by[("baseline n=N", dist)].history.accuracy
        for n in (3, 5):
            two = by[(f"two-layer n={n}", dist)].history.accuracy
            np.testing.assert_allclose(two, base, atol=1e-6)
    # Distribution ordering of the figure: IID best, non-IID(0%) worst.
    assert (
        by[("two-layer n=3", "iid")].final_accuracy
        > by[("two-layer n=3", "noniid-0")].final_accuracy
    )
    assert (
        by[("two-layer n=3", "noniid-5")].final_accuracy
        > by[("two-layer n=3", "noniid-0")].final_accuracy
    )
