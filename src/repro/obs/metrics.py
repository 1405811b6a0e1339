"""Metrics registry: counters, gauges, histograms with labels.

The registry mirrors the Prometheus data model at the scale this
reproduction needs: label sets are small (node, subgroup, protocol
kind), children are cached per label-value tuple, and histograms keep
their raw observations so quantiles are *exact* — the evaluation
figures compare distributions, and approximate sketches would add an
unquantified error term to every plot.

Quantiles use the same linear-interpolation definition (including the
symmetrized lerp) as ``numpy.quantile(..., method="linear")``; a
property test asserts bit-identical agreement with NumPy.

For the 10⁵-peer scale push, exact histograms are the one metrics
primitive whose memory grows linearly with the workload, so
:class:`Histogram` takes a ``capacity``: ``None`` keeps every raw value
(the exact histogram above); a bound (``observe(retention="rollup")``
sets :data:`ROLLUP_CAPACITY`) turns it into a fixed-size merging
digest that stays exact until the capacity is exceeded and afterwards
has rank error bounded by the compaction count (see
``docs/observability.md``).  Counters and gauges are O(1) either way.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _render_labels(label_names: tuple[str, ...], label_values: tuple[str, ...],
                   extra: Mapping[str, str] | None = None) -> str:
    pairs = [f'{k}="{_escape_label(v)}"' for k, v in zip(label_names, label_values)]
    if extra:
        pairs.extend(f'{k}="{_escape_label(v)}"' for k, v in extra.items())
    return "{" + ",".join(pairs) + "}" if pairs else ""


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """Value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


def _compact(centroids: list[list[float]]) -> list[list[float]]:
    """Halve the centroid count by merging adjacent sorted pairs."""
    out: list[list[float]] = []
    for i in range(0, len(centroids) - 1, 2):
        (v1, w1), (v2, w2) = centroids[i], centroids[i + 1]
        w = w1 + w2
        out.append([(v1 * w1 + v2 * w2) / w, w])
    if len(centroids) % 2:
        out.append(centroids[-1])
    return out


class Histogram:
    """Quantile histogram (merging-digest family).

    With ``capacity=None`` (full retention) it keeps every raw
    observation in insertion order and never compacts, so quantiles are
    *exact*: bit-identical to ``numpy.quantile(..., method="linear")``.

    With a ``capacity`` (``ROLLUP_CAPACITY`` under rollup retention)
    observations buffer until ``capacity`` is reached, then collapse
    into sorted ``[value, weight]`` centroids; whenever the centroid
    list would exceed ``capacity`` it is compacted by merging adjacent
    pairs.  Until the first compaction quantiles are still exact;
    afterwards they interpolate between centroid mean ranks, with rank
    error bounded by the largest centroid weight (≤ ``2**compactions``),
    i.e. O(count / capacity).

    Reads never mutate: a quantile works on a sorted copy.  Everything
    is deterministic: same observation sequence ⇒ same centroids.
    """

    __slots__ = ("capacity", "count", "sum", "min", "max",
                 "compactions", "_centroids", "_buffer")

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 8:
            raise ValueError("histogram capacity must be >= 8")
        self.capacity = capacity
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.compactions = 0
        # sorted [value, weight] pairs once flushed (bounded only)
        self._centroids: list[list[float]] = []
        self._buffer: list[float] = []

    def observe(self, value: float) -> None:
        v = float(value)
        self.count += 1
        self.sum += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        self._buffer.append(v)
        if self.capacity is not None and len(self._buffer) >= self.capacity:
            self._flush()

    def _flush(self) -> None:
        self._centroids, n = self._collapse(self._centroids)
        self.compactions += n
        self._buffer = []

    def _collapse(
        self, centroids: list[list[float]]
    ) -> tuple[list[list[float]], int]:
        """``centroids`` plus the buffer, sorted and compacted to capacity.

        Returns the new centroid list and the compactions it took; the
        histogram itself is left untouched.
        """
        merged = centroids + [[v, 1.0] for v in self._buffer]
        merged.sort(key=lambda c: c[0])
        n = 0
        while self.capacity is not None and len(merged) > self.capacity:
            merged = _compact(merged)
            n += 1
        return merged, n

    @property
    def exact(self) -> bool:
        """True while quantiles are numpy-identical (nothing compacted)."""
        return self.compactions == 0

    def quantile(self, q: float) -> float:
        """q-th quantile, q in [0, 1] — numpy.quantile's linear method
        until the first compaction, centroid-rank interpolation after."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self.count:
            raise ValueError("no observations")
        cents, n = self._collapse(self._centroids)
        if self.compactions + n == 0:
            # All weights are 1 — numpy's symmetrized lerp, approaching
            # the nearer endpoint so the result is bit-identical.
            h = (len(cents) - 1) * q
            lo, hi = math.floor(h), math.ceil(h)
            a, b, t = cents[lo][0], cents[hi][0], h - lo
            if lo == hi:
                return a
            if t >= 0.5:
                return b - (b - a) * (1.0 - t)
            return a + (b - a) * t
        if q <= 0.0:
            return self.min
        if q >= 1.0:
            return self.max
        # Interpolate between centroid mean ranks in [0, count).
        target = q * (self.count - 1)
        cum = 0.0
        prev_rank = None
        prev_val = self.min
        for v, w in cents:
            rank = cum + (w - 1.0) / 2.0  # mean rank of this centroid
            if target <= rank:
                if prev_rank is None or rank == prev_rank:
                    return v
                t = (target - prev_rank) / (rank - prev_rank)
                return prev_val + (v - prev_val) * t
            prev_rank, prev_val = rank, v
            cum += w
        return self.max

    def approx_bytes(self) -> int:
        """Rough bound on held memory: raw floats, or centroids + buffer."""
        if self.capacity is None:
            return 8 * len(self._buffer) + 64
        return 16 * len(self._centroids) + 8 * len(self._buffer) + 96


#: histogram capacity under ``retention="rollup"``.
ROLLUP_CAPACITY = 512

_KIND_OF = {
    Counter: "counter",
    Gauge: "gauge",
    Histogram: "summary",
}

#: quantiles included in the Prometheus exposition of a histogram.
EXPORT_QUANTILES = (0.5, 0.9, 0.99)


class MetricFamily:
    """A named metric with a fixed label schema and cached children."""

    def __init__(self, name: str, help_text: str, label_names: tuple[str, ...],
                 child_cls: type, *child_args: object) -> None:
        self.name = name
        self.help = help_text
        self.label_names = label_names
        self._child_cls = child_cls
        self._child_args = child_args
        self._children: dict[tuple[str, ...], object] = {}

    def labels(self, **labels: object):
        """The child for this label combination (created on first use)."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[k]) for k in self.label_names)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._child_cls(*self._child_args)
        return child

    def _sole(self):
        if self.label_names:
            raise ValueError(f"{self.name} has labels; use .labels(...)")
        return self.labels()

    # Convenience delegates for label-less families.
    def inc(self, amount: float = 1.0) -> None:
        self._sole().inc(amount)

    def set(self, value: float) -> None:
        self._sole().set(value)

    def observe(self, value: float) -> None:
        self._sole().observe(value)

    def children(self) -> Iterable[tuple[tuple[str, ...], object]]:
        return sorted(self._children.items())


class MetricsRegistry:
    """Creates-or-returns metric families and renders the exposition.

    ``histogram_capacity`` is the :class:`Histogram` capacity of every
    ``histogram()`` family: ``None`` (default, full retention — raw
    values, numpy-identical quantiles) or :data:`ROLLUP_CAPACITY` under
    rollup retention.
    """

    def __init__(self, histogram_capacity: int | None = None) -> None:
        self.histogram_capacity = histogram_capacity
        self._families: dict[str, MetricFamily] = {}

    def _family(self, name: str, help_text: str, labels: tuple[str, ...],
                child_cls: type, *child_args: object) -> MetricFamily:
        fam = self._families.get(name)
        if fam is not None:
            if fam._child_cls is not child_cls or fam.label_names != tuple(labels):
                raise ValueError(
                    f"metric {name} already registered with a different "
                    "kind or label schema"
                )
            return fam
        fam = MetricFamily(name, help_text, tuple(labels), child_cls,
                           *child_args)
        self._families[name] = fam
        return fam

    def counter(self, name: str, help_text: str = "",
                labels: tuple[str, ...] = ()) -> MetricFamily:
        return self._family(name, help_text, labels, Counter)

    def gauge(self, name: str, help_text: str = "",
              labels: tuple[str, ...] = ()) -> MetricFamily:
        return self._family(name, help_text, labels, Gauge)

    def histogram(self, name: str, help_text: str = "",
                  labels: tuple[str, ...] = ()) -> MetricFamily:
        return self._family(name, help_text, labels, Histogram,
                            self.histogram_capacity)

    def families(self) -> Iterable[MetricFamily]:
        return self._families.values()

    def approx_bytes(self) -> int:
        """Rough accounting of bytes held by metric children.

        Scalars count a fixed overhead; histograms their own
        :meth:`Histogram.approx_bytes`.
        Used by the resource profiler's obs self-accounting — a bound
        on retained telemetry, not an exact heap measurement.
        """
        total = 0
        for fam in self._families.values():
            for _key, child in fam.children():
                total += (child.approx_bytes() if isinstance(child, Histogram)
                          else 32)
        return total

    def observation_count(self) -> int:
        """Total histogram observations across all families."""
        return sum(
            child.count
            for fam in self._families.values()
            for _key, child in fam.children()
            if isinstance(child, Histogram)
        )

    def render_prometheus(self) -> str:
        """Prometheus text exposition format 0.0.4."""
        lines: list[str] = []
        for fam in self._families.values():
            kind = _KIND_OF[fam._child_cls]
            if fam.help:
                lines.append(f"# HELP {fam.name} {fam.help}")
            lines.append(f"# TYPE {fam.name} {kind}")
            for key, child in fam.children():
                base = _render_labels(fam.label_names, key)
                if isinstance(child, (Counter, Gauge)):
                    lines.append(f"{fam.name}{base} {child.value:g}")
                else:
                    for q in EXPORT_QUANTILES:
                        label = _render_labels(
                            fam.label_names, key, {"quantile": str(q)}
                        )
                        value = child.quantile(q) if child.count else float("nan")
                        lines.append(f"{fam.name}{label} {value:g}")
                    lines.append(f"{fam.name}_sum{base} {child.sum:g}")
                    lines.append(f"{fam.name}_count{base} {child.count}")
        return "\n".join(lines) + "\n"
