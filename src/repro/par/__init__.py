"""repro.par — an ordered map of independent jobs over a host pool.

:func:`~repro.par.executor.run_jobs` is the package's one function.
Every round runs in one simulator on one thread; the repo benchmark's
``par.*`` probes time this map on its own.
"""

from .executor import run_jobs

__all__ = ["run_jobs"]
