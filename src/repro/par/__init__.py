"""repro.par — deterministic parallel execution of independent subgroups.

See :mod:`repro.par.executor` for the fan-out machinery and determinism
contract, and :mod:`repro.par.subgroup` for the picklable job the
two-layer wire round dispatches.  ``docs/performance.md`` documents the
user-facing ``parallel={"off","threads","process"}`` knob.
"""

from .executor import PARALLEL_MODES, check_parallel_mode, run_jobs
from .subgroup import SubgroupTask, run_subgroup_round

__all__ = [
    "PARALLEL_MODES",
    "check_parallel_mode",
    "run_jobs",
    "SubgroupTask",
    "run_subgroup_round",
]
