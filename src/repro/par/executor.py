"""Deterministic fan-out of independent jobs with observability capture.

The two-layer round (paper Alg. 3) treats its ``m`` subgroups as
independent — that independence is the whole point of the sharded
design, so the simulator exploits it: :func:`run_jobs` executes a list
of picklable job descriptions under one of three modes,

- ``"off"``      — the paper-faithful inline loop (default everywhere);
- ``"threads"``  — ``ThreadPoolExecutor``; numpy kernels release the GIL,
  so batched share math overlaps across subgroups;
- ``"process"``  — ``ProcessPoolExecutor`` (true multi-core), falling
  back to threads when the platform cannot fork worker processes.

Determinism contract: each job carries its own RNG seed (spawned by the
caller from the round seed, in job order), so the computed *values* are
identical across all three modes.  Observability is captured per job —
each worker runs under a private :class:`~repro.obs.runtime.Observability`
— and merged into the parent pipeline in **job order**, so the merged
event stream and metrics are independent of scheduling order and
reproducible run to run.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..obs import runtime as _runtime

#: Valid values for the ``parallel=`` knob.
PARALLEL_MODES = ("off", "threads", "process")


def check_parallel_mode(mode: str) -> str:
    if mode not in PARALLEL_MODES:
        raise ValueError(
            f"unknown parallel mode {mode!r}; expected one of {PARALLEL_MODES}"
        )
    return mode


@dataclass(frozen=True)
class CollectedResult:
    """One job's return value plus its captured observability."""

    value: Any
    events: tuple
    metrics: dict


def _call_collected(fn: Callable, item: Any, collect: bool,
                    causal: bool = False,
                    sample_rate: float = 1.0,
                    sample_seed: int = 0) -> CollectedResult:
    """Run one job under a private observability pipeline.

    Works in all three execution contexts: in a worker *thread* the
    installed :class:`~repro.obs.runtime.ThreadLocalObservability` shim
    routes this thread's emissions to the private pipeline; in a worker
    *process* (or inline) the private pipeline is installed globally for
    the duration of the call.  ``causal`` carries the parent pipeline's
    causal-tracing flag into the worker so span-carrying events are
    produced (or not) exactly as on the sequential path, and
    ``sample_rate``/``sample_seed`` carry its trace-sampling config so
    the per-trace keep/drop decision (a pure function of seed and
    trace id) is identical in every mode.  Workers always run full
    retention — their streams are bounded by one subgroup's size and
    raw histogram payloads merge into either parent mode.
    """
    obs = _runtime.Observability(
        enabled=collect, causal=causal,
        causal_sample_rate=sample_rate, causal_sample_seed=sample_seed,
    )
    current = _runtime.get()
    if isinstance(current, _runtime.ThreadLocalObservability):
        current.push(obs)
        try:
            value = fn(item)
        finally:
            current.pop()
    else:
        with _runtime.observe(obs):
            value = fn(item)
    return CollectedResult(value, tuple(obs.events), obs.metrics.snapshot())


def _fan_out(calls: Sequence[Callable[[], CollectedResult]],
             mode: str, parent: Any) -> list[CollectedResult]:
    max_workers = min(len(calls), os.cpu_count() or 1) or 1
    if mode == "process":
        try:
            with ProcessPoolExecutor(max_workers=max_workers) as ex:
                futures = [ex.submit(c) for c in calls]
                return [f.result() for f in futures]
        except (OSError, PermissionError, BrokenProcessPool):
            # Sandboxed/fork-less platforms: degrade to threads (same
            # results by the determinism contract, lower parallelism).
            mode = "threads"
    shim = _runtime.ThreadLocalObservability(parent)
    _runtime.install(shim)
    try:
        with ThreadPoolExecutor(max_workers=max_workers) as ex:
            futures = [ex.submit(c) for c in calls]
            return [f.result() for f in futures]
    finally:
        _runtime.install(parent)


def run_jobs(fn: Callable, items: Sequence[Any], mode: str) -> list:
    """Execute ``fn(item)`` for every item; results in item order.

    ``mode="off"`` (or a single item) runs the plain inline loop with
    events flowing straight to the parent pipeline.  Otherwise jobs run
    concurrently, each under a private pipeline, and the captured events
    and metrics are merged into the parent **in item order** afterwards.
    For process mode, ``fn`` must be a module-level function and every
    item and return value picklable.
    """
    check_parallel_mode(mode)
    items = list(items)
    if mode == "off" or len(items) <= 1:
        return [fn(item) for item in items]
    parent = _runtime.get()
    if isinstance(parent, _runtime.ThreadLocalObservability):
        raise RuntimeError("nested parallel fan-out is not supported")
    collect = parent.enabled
    causal = bool(getattr(parent, "causal", False))
    sampler = getattr(parent, "sampler", None)
    sample_rate = sampler.rate if sampler is not None else 1.0
    sample_seed = sampler.seed if sampler is not None else 0
    calls = [
        functools.partial(_call_collected, fn, item, collect, causal,
                          sample_rate, sample_seed)
        for item in items
    ]
    collected = _fan_out(calls, mode, parent)
    for c in collected:  # deterministic merge: job order, not finish order
        parent.absorb_events(list(c.events))
        parent.metrics.merge_snapshot(c.metrics)
    return [c.value for c in collected]
