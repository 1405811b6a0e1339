"""Metrics registry: quantiles vs numpy, labels, Prometheus rendering."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import Histogram, MetricsRegistry


@given(
    values=st.lists(
        st.floats(min_value=-1e9, max_value=1e9,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=200,
    ),
    q=st.floats(min_value=0.0, max_value=1.0),
)
def test_histogram_quantile_matches_numpy(values, q):
    """Bit-identical to numpy.quantile(..., method="linear")."""
    hist = Histogram()
    for v in values:
        hist.observe(v)
    expected = float(np.quantile(values, q, method="linear"))
    assert hist.quantile(q) == expected


def test_histogram_interleaves_observe_and_quantile():
    hist = Histogram()
    hist.observe(5.0)
    hist.observe(1.0)
    assert hist.quantile(0.5) == 3.0
    hist.observe(3.0)  # after a sort already happened
    assert hist.quantile(0.5) == 3.0
    assert hist.count == 3
    assert hist.sum == 9.0


def test_histogram_rejects_bad_input():
    hist = Histogram()
    with pytest.raises(ValueError):
        hist.quantile(0.5)  # empty
    hist.observe(1.0)
    with pytest.raises(ValueError):
        hist.quantile(1.5)


def test_counter_is_monotonic():
    reg = MetricsRegistry()
    c = reg.counter("ops_total")
    c.inc()
    c.inc(2.5)
    with pytest.raises(ValueError):
        c.inc(-1.0)
    assert c.labels().value == 3.5


def test_label_schema_is_validated():
    reg = MetricsRegistry()
    fam = reg.counter("msgs_total", labels=("kind",))
    fam.labels(kind="sac.share").inc()
    with pytest.raises(ValueError):
        fam.labels(wrong="x")
    with pytest.raises(ValueError):
        fam.inc()  # labeled family needs .labels(...)
    # Same name with a different schema or kind is an error.
    with pytest.raises(ValueError):
        reg.counter("msgs_total", labels=("other",))
    with pytest.raises(ValueError):
        reg.gauge("msgs_total", labels=("kind",))
    # Idempotent re-registration returns the same family.
    assert reg.counter("msgs_total", labels=("kind",)) is fam


def test_prometheus_rendering():
    reg = MetricsRegistry()
    reg.counter("msgs_total", "Messages.", labels=("kind",)).labels(
        kind="raft").inc(3)
    reg.gauge("term", "Current term.").set(7)
    h = reg.histogram("lat_ms", "Latency.", labels=("group",))
    for v in (1.0, 2.0, 3.0, 4.0):
        h.labels(group="0").observe(v)
    text = reg.render_prometheus()
    assert "# TYPE msgs_total counter" in text
    assert '# HELP msgs_total Messages.' in text
    assert 'msgs_total{kind="raft"} 3' in text
    assert "# TYPE term gauge" in text
    assert "term 7" in text
    assert "# TYPE lat_ms summary" in text
    assert 'lat_ms{group="0",quantile="0.5"} 2.5' in text
    assert 'lat_ms_sum{group="0"} 10' in text
    assert 'lat_ms_count{group="0"} 4' in text
    assert text.endswith("\n")


def test_prometheus_label_escaping():
    reg = MetricsRegistry()
    reg.counter("weird_total", labels=("tag",)).labels(tag='a"b\\c\nd').inc()
    text = reg.render_prometheus()
    assert r'tag="a\"b\\c\nd"' in text


def test_histogram_bit_identical_to_numpy_at_2048_values():
    # Raw values are never summarized: the property holds at any size.
    values = np.random.default_rng(0).normal(size=2048).tolist()
    hist = Histogram()
    for v in values:
        hist.observe(v)
    for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
        assert hist.quantile(q) == float(
            np.quantile(values, q, method="linear")
        )


def test_histogram_empty_quantile_raises():
    with pytest.raises(ValueError, match="no observations"):
        Histogram().quantile(0.5)


def test_histogram_count_sum_min_max():
    hist = Histogram()
    for v in [3.0, 1.0, 2.0, 5.0, 4.0]:
        hist.observe(v)
    assert hist.count == 5
    assert hist.sum == 15.0
    assert hist.min == 1.0
    assert hist.max == 5.0


def test_registry_approx_bytes_tracks_growth():
    reg = MetricsRegistry()
    before = reg.approx_bytes()
    hist = reg.histogram("h_ms", "help").labels()
    for v in range(1000):
        hist.observe(float(v))
    assert reg.approx_bytes() > before + 8 * 1000 - 1
    assert reg.observation_count() == 1000
