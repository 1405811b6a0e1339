"""Random one-way latency models, the inputs that drive the wave engine's
sort path in tests.

:class:`repro.simnet.FixedLatency` (the paper's 15 ms ``tc`` delay) is
the only model the program runs; with it every wave's delivery times
already ascend.  These two draw per-message delays, so waves arrive out
of order and interleave.  Both honour the
:class:`~repro.simnet.network.LatencyModel` stream contract:
``sample_batch`` consumes the RNG stream exactly as ``len(src)``
sequential ``sample`` calls would.
"""

import numpy as np


class UniformLatency:
    """One-way delay ~ U(lo, hi) ms."""

    def __init__(self, lo_ms: float, hi_ms: float) -> None:
        if not 0 <= lo_ms <= hi_ms:
            raise ValueError("need 0 <= lo <= hi")
        self.lo_ms = lo_ms
        self.hi_ms = hi_ms

    def sample(self, src: int, dst: int, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.lo_ms, self.hi_ms))

    def sample_batch(
        self, src_ids: np.ndarray, dst_ids: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        return rng.uniform(self.lo_ms, self.hi_ms, size=len(src_ids))


class GaussianLatency:
    """One-way delay ~ N(mean, std) ms, truncated at ``floor_ms``."""

    def __init__(self, mean_ms: float, std_ms: float, floor_ms: float = 0.1) -> None:
        self.mean_ms = mean_ms
        self.std_ms = std_ms
        self.floor_ms = floor_ms

    def sample(self, src: int, dst: int, rng: np.random.Generator) -> float:
        return max(self.floor_ms, float(rng.normal(self.mean_ms, self.std_ms)))

    def sample_batch(
        self, src_ids: np.ndarray, dst_ids: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        draws = rng.normal(self.mean_ms, self.std_ms, size=len(src_ids))
        return np.maximum(self.floor_ms, draws)
