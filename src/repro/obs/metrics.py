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


class Histogram:
    """Exact quantile histogram over raw observations.

    Keeps every observation in insertion order, so quantiles are
    *exact*: bit-identical to ``numpy.quantile(..., method="linear")``.
    Reads never mutate: a quantile works on a sorted copy.
    """

    __slots__ = ("count", "sum", "min", "max", "_values")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._values: list[float] = []

    def observe(self, value: float) -> None:
        v = float(value)
        self.count += 1
        self.sum += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        self._values.append(v)

    def quantile(self, q: float) -> float:
        """q-th quantile, q in [0, 1] — numpy.quantile's linear method."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self.count:
            raise ValueError("no observations")
        vals = sorted(self._values)
        # numpy's symmetrized lerp, approaching the nearer endpoint so
        # the result is bit-identical.
        h = (len(vals) - 1) * q
        lo, hi = math.floor(h), math.ceil(h)
        a, b, t = vals[lo], vals[hi], h - lo
        if lo == hi:
            return a
        if t >= 0.5:
            return b - (b - a) * (1.0 - t)
        return a + (b - a) * t

    def approx_bytes(self) -> int:
        """Rough bound on held memory: the raw floats."""
        return 8 * len(self._values) + 64


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
                 child_cls: type) -> None:
        self.name = name
        self.help = help_text
        self.label_names = label_names
        self._child_cls = child_cls
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
            child = self._children[key] = self._child_cls()
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
    """Creates-or-returns metric families and renders the exposition."""

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}

    def _family(self, name: str, help_text: str, labels: tuple[str, ...],
                child_cls: type) -> MetricFamily:
        fam = self._families.get(name)
        if fam is not None:
            if fam._child_cls is not child_cls or fam.label_names != tuple(labels):
                raise ValueError(
                    f"metric {name} already registered with a different "
                    "kind or label schema"
                )
            return fam
        fam = MetricFamily(name, help_text, tuple(labels), child_cls)
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
        return self._family(name, help_text, labels, Histogram)

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
