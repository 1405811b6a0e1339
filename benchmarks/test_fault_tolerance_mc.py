"""Sec. VII-D — Monte Carlo validation of the fault-tolerance thresholds.

Random f-crash availability curve for the paper's N=25, n=5 topology,
checked against the closed-form guarantees: full availability up to the
guaranteed threshold, zero once the FedAvg layer must lose its majority.
The paper's thresholds are ``ARTEFACTS["Sec. VII-D"]``.
"""

import numpy as np
from conftest import emit

from repro.core.resharding import (
    fedavg_layer_tolerance,
    optimistic_max_faults,
    subgroup_tolerance,
    system_operational,
    tolerance_curve,
)
from repro.core import Topology
from repro.experiments.paper_settings import ARTEFACTS

SEC7D = ARTEFACTS["Sec. VII-D"]
TOPO = Topology.by_group_count(SEC7D.setting["n_peers"], SEC7D.setting["group_count"])


def test_fault_tolerance_monte_carlo(benchmark):
    curve = benchmark.pedantic(
        tolerance_curve,
        args=(TOPO, np.random.default_rng(0)),
        kwargs={"trials_per_point": 300},
        rounds=1,
        iterations=1,
    )
    lines = ["Sec. VII-D — availability vs random crashes (N=25, n=5)",
             f"  guaranteed per-subgroup tolerance: {subgroup_tolerance(5)}",
             f"  FedAvg-layer tolerance: {fedavg_layer_tolerance(5)}",
             f"  optimistic bound (followers only): {optimistic_max_faults(5, 5)}",
             f"  {'f':>4}{'available':>11}"]
    for f, frac in curve:
        if f % 2 == 0:
            lines.append(f"  {f:>4}{frac:>10.0%}")
    emit("\n".join(lines))

    by_f = dict(curve)
    # Up to min(subgroup, fedavg) tolerance, ANY crash set survives.
    guaranteed = SEC7D.paper["guaranteed crashes"]
    assert min(subgroup_tolerance(5), fedavg_layer_tolerance(5)) == guaranteed
    assert all(by_f[f] == 1.0 for f in range(guaranteed + 1))
    # The optimistic bound is achievable with follower-only crashes.
    optimistic = SEC7D.paper["optimistic crashes"]
    assert optimistic_max_faults(5, 5) == optimistic
    followers = {p for g in TOPO.groups for p in g[1:]}
    assert system_operational(TOPO, set(list(followers)[:optimistic]))
    # Availability decays towards zero as crashes approach N.
    assert by_f[25] == 0.0
    assert by_f[20] < by_f[5]
