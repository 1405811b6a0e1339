"""repro.chaos: fault-injection schedules and invariant-checked chaos runs.

Typed fault events (:class:`Crash`, :class:`Recover`,
:class:`PartitionWindow`, :class:`LossWindow`, :class:`DelaySpike`)
compose into a validated :class:`FaultSchedule` that arms on any
simulator+network pair; :class:`ChaosPlan` samples schedules from named
:class:`ChaosProfile` distributions with an explicit generator; the
invariants grade every run (exact aggregate or nothing; typed failure
or completion); and :func:`run_chaos_matrix` drives seeded campaigns
across the SAC, two-layer and Raft stacks (``python -m repro chaos``).
"""

from .invariants import (
    InvariantVerdict,
    check_eventual_recovery,
    check_liveness,
    check_reshard_floor,
    check_safety,
)
from .plan import PROFILES, ChaosPlan, ChaosProfile, ChurnDraw
from .runner import (
    LAYERS,
    TrialReport,
    format_matrix,
    run_chaos_matrix,
    run_raft_trial,
    run_sac_trial,
    run_two_layer_trial,
)
from .scale import ScaleReport, run_scale_trial
from .schedule import (
    Crash,
    DelaySpike,
    FaultEvent,
    FaultSchedule,
    LossWindow,
    PartitionWindow,
    Recover,
)
from .timeline import FaultTimeline

__all__ = [
    "Crash",
    "Recover",
    "PartitionWindow",
    "LossWindow",
    "DelaySpike",
    "FaultEvent",
    "FaultSchedule",
    "FaultTimeline",
    "ChaosProfile",
    "ChaosPlan",
    "ChurnDraw",
    "PROFILES",
    "InvariantVerdict",
    "check_safety",
    "check_liveness",
    "check_eventual_recovery",
    "check_reshard_floor",
    "LAYERS",
    "TrialReport",
    "run_sac_trial",
    "run_two_layer_trial",
    "run_raft_trial",
    "run_chaos_matrix",
    "format_matrix",
    "ScaleReport",
    "run_scale_trial",
]
