"""Shared benchmark configuration.

Each benchmark regenerates one table/figure of the paper and prints the
series it reproduces (run with ``-s`` to see the tables).  Scale knobs:

- ``REPRO_ROUNDS`` — FL rounds for Figs. 6-9 (default 40; paper 1000)
- ``REPRO_TRIALS`` — Raft trials per timeout for Figs. 10-12
  (default 25; paper 1000)
- ``REPRO_PEERS``  — peers for Figs. 6-9 (defaults 10 / 20, as in the paper)

Timing benchmarks use :func:`measure` — warmup iterations plus
median-of-repeats, so a scheduler hiccup in one repetition cannot flip a
result — and print their wall numbers via :func:`emit` instead of
asserting on raw wall time (cross-commit wall and memory comparisons are
``bench/run.py``'s job).
"""

from __future__ import annotations

import statistics
import time
from typing import Callable


def emit(text: str) -> None:
    """Print a result table under the benchmark output."""
    print("\n" + text)


def measure(
    fn: Callable[[], object], warmup: int = 1, repeats: int = 5
) -> tuple[object, dict]:
    """Run ``fn`` ``warmup + repeats`` times; return (last result, stats).

    The stats dict is in milliseconds: the median is the headline
    number (robust to one slow repetition), min/mean/max ride along.
    Warmup runs are executed but not measured.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    result = None
    for _ in range(warmup):
        result = fn()
    walls: list[float] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        walls.append((time.perf_counter() - t0) * 1e3)
    return result, {
        "repeats": repeats,
        "warmup": warmup,
        "min": min(walls),
        "median": statistics.median(walls),
        "mean": statistics.fmean(walls),
        "max": max(walls),
    }

