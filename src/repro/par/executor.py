"""An ordered map of independent jobs over a host thread or process pool.

:func:`run_jobs` executes ``fn(item)`` for a list of picklable items
under one of three modes,

- ``"off"``      — the plain inline loop;
- ``"threads"``  — ``ThreadPoolExecutor``; numpy kernels release the GIL;
- ``"process"``  — ``ProcessPoolExecutor`` (true multi-core), falling
  back to threads when the platform cannot fork worker processes.

Results come back in item order whatever the mode.  Jobs run under the
caller's observability pipeline as it is, with no per-job capture.  No
round uses it (every round runs in one simulator on one thread); the
repo benchmark's ``par.*`` probes time it.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence

#: Valid values for ``run_jobs``'s ``mode``.
PARALLEL_MODES = ("off", "threads", "process")


def run_jobs(fn: Callable, items: Sequence, mode: str) -> list:
    """Execute ``fn(item)`` for every item; results in item order.

    ``mode="off"`` (or a single item) runs the plain inline loop.  For
    process mode, ``fn`` must be a module-level function and every item
    and return value picklable.
    """
    if mode not in PARALLEL_MODES:
        raise ValueError(
            f"unknown parallel mode {mode!r}; expected one of {PARALLEL_MODES}"
        )
    items = list(items)
    if mode == "off" or len(items) <= 1:
        return [fn(item) for item in items]
    max_workers = min(len(items), os.cpu_count() or 1)
    if mode == "process":
        try:
            with ProcessPoolExecutor(max_workers=max_workers) as ex:
                return list(ex.map(fn, items))
        except (OSError, BrokenProcessPool):
            pass  # sandboxed/fork-less platform: same results on threads
    with ThreadPoolExecutor(max_workers=max_workers) as ex:
        return list(ex.map(fn, items))
