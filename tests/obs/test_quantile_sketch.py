"""Bounded histograms: ``Histogram(capacity=c)``.

The contract: exact (bit-identical to the numpy linear-interpolation
quantile) until the first compaction — forever with ``capacity=None`` —
bounded rank error afterwards, deterministic, and wired into the
registry as the rollup-retention path (``ROLLUP_CAPACITY``).
"""

import numpy as np
import pytest

from repro.obs.metrics import ROLLUP_CAPACITY, Histogram, MetricsRegistry

QS = (0.0, 0.25, 0.5, 0.9, 0.99, 1.0)


def _rank_error(sketch, values, q):
    """|rank(estimate) - q| over the sorted sample, in [0, 1]."""
    est = sketch.quantile(q)
    ordered = np.sort(values)
    rank = np.searchsorted(ordered, est, side="right") / len(ordered)
    return abs(rank - q)


class TestExactPhase:
    def test_bit_identical_to_numpy_until_first_compaction(self):
        # capacity=None never compacts: the same property at any size.
        rng = np.random.default_rng(0)
        for capacity, n in ((ROLLUP_CAPACITY, ROLLUP_CAPACITY),
                            (None, 4 * ROLLUP_CAPACITY)):
            values = rng.normal(size=n).tolist()
            sketch = Histogram(capacity=capacity)
            for v in values:
                sketch.observe(v)
            assert sketch.exact
            for q in QS:
                assert sketch.quantile(q) == float(
                    np.quantile(values, q, method="linear")
                )

    def test_count_sum_min_max(self):
        sketch = Histogram(capacity=8)
        for v in [3.0, 1.0, 2.0, 5.0, 4.0]:
            sketch.observe(v)
        assert sketch.count == 5
        assert sketch.sum == 15.0
        assert sketch.min == 1.0
        assert sketch.max == 5.0

    def test_empty_quantile_raises(self):
        with pytest.raises(ValueError, match="no observations"):
            Histogram(capacity=ROLLUP_CAPACITY).quantile(0.5)


class TestCompactedPhase:
    def test_memory_is_bounded_and_error_is_small(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=50_000)
        sketch = Histogram(capacity=256)
        for v in values:
            sketch.observe(v)
        assert not sketch.exact
        assert sketch.compactions > 0
        # Bounded memory: centroids never exceed capacity after a flush.
        assert len(sketch._centroids) <= 256
        assert sketch.approx_bytes() < 16 * 256 + 8 * 256 + 96 + 1
        # Rank error stays well inside the documented ~1% envelope.
        for q in QS[1:-1]:
            assert _rank_error(sketch, values, q) < 0.02
        assert sketch.quantile(0.0) == float(values.min())
        assert sketch.quantile(1.0) == float(values.max())

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=5_000).tolist()
        a, b = Histogram(capacity=128), Histogram(capacity=128)
        for v in values:
            a.observe(v)
            b.observe(v)
        assert a._centroids == b._centroids and a._buffer == b._buffer
        assert a.compactions == b.compactions > 0
        for q in np.linspace(0.0, 1.0, 101):
            assert a.quantile(q) == b.quantile(q)


class TestRegistryIntegration:
    def test_sketch_mode_builds_sketch_histograms(self):
        reg = MetricsRegistry(ROLLUP_CAPACITY)
        hist = reg.histogram("h_ms", "help")
        assert hist.labels().capacity == ROLLUP_CAPACITY
        reg_exact = MetricsRegistry()
        assert reg_exact.histogram("h_ms", "help").labels().capacity is None

    def test_prometheus_render_includes_sketch_quantiles(self):
        reg = MetricsRegistry(ROLLUP_CAPACITY)
        for v in range(100):
            reg.histogram("h_ms", "help").labels().observe(float(v))
        text = reg.render_prometheus()
        assert 'h_ms{quantile="0.5"}' in text
        assert "h_ms_count 100" in text

    def test_registry_approx_bytes_tracks_growth(self):
        reg = MetricsRegistry()
        before = reg.approx_bytes()
        hist = reg.histogram("h_ms", "help").labels()
        for v in range(1000):
            hist.observe(float(v))
        assert reg.approx_bytes() > before + 8 * 1000 - 1
        assert reg.observation_count() == 1000
