"""Analysis: the privacy bounds (:mod:`.privacy`); the Sec. VII-D fault
thresholds live with the planner in :mod:`repro.core.resharding`."""

from ..core.resharding import (
    fedavg_layer_tolerance,
    optimistic_max_faults,
    subgroup_tolerance,
    system_operational,
    tolerance_curve,
)

__all__ = [
    "subgroup_tolerance",
    "fedavg_layer_tolerance",
    "optimistic_max_faults",
    "system_operational",
    "tolerance_curve",
]
