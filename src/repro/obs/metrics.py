"""The process-wide metrics registry: counters, gauges and histograms.

One :class:`MetricsRegistry` instance (the module-level default returned
by :func:`get_registry`) collects every runtime metric of the library —
session runs, store lookups, cluster events, per-endpoint serve latencies —
and renders them as Prometheus text (``GET /v1/metrics``) or JSON.

Design rules:

* **Thread-safe and exact** — every metric family guards its samples with
  one lock, so concurrent increments from the ``thread`` execution
  backend's pool (or the HTTP server's handler threads) sum exactly;
  ``tests/obs/test_metrics.py`` hammers this with a thread pool.
* **Fixed histogram buckets** — histograms carry immutable, sorted bucket
  boundaries chosen at registration; observation is a bisect plus two
  adds, cheap enough for the warm serve hot path.
* **Get-or-create registration** — :meth:`MetricsRegistry.counter` (and
  friends) return the existing family when the name is already
  registered, so instrumented modules can declare their metrics at import
  time without coordination; re-registering under a different metric type
  or bucket layout is a :class:`~repro.errors.ConfigurationError`.
* **Bound handles** — ``family.labels(**labels)`` returns a child whose
  label key is computed once; hot paths bind their children when their
  owner is constructed (service, session, store).  A handle belongs to
  the registry its family came from, so an owner built before
  :func:`set_registry` keeps recording to the previous registry.
* **Snapshot / reset** — :meth:`snapshot` returns a point-in-time plain
  dict (the unit of delta-based assertions), :meth:`reset` zeroes every
  sample while keeping the registrations.

Documented in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "get_registry",
    "set_registry",
]

#: Default histogram boundaries (seconds): spans the warm serve hot path
#: (~0.1 ms) through cold multi-second sweeps.  ``+Inf`` is implicit.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: LabelKey, extra: Sequence[Tuple[str, str]] = ()) -> str:
    items = list(key) + list(extra)
    if not items:
        return ""
    body = ",".join(f'{name}="{value}"' for name, value in items)
    return "{" + body + "}"


class _Metric:
    """Base family: one metric name holding samples per label set."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()

    def reset(self) -> None:
        raise NotImplementedError

    def samples(self) -> dict:
        """JSON-ready snapshot of every label set's value."""
        raise NotImplementedError

    def render(self) -> List[str]:
        """Prometheus text lines for this family (HELP/TYPE included)."""
        raise NotImplementedError

    def _header(self) -> List[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        return lines


class Counter(_Metric):
    """A monotonically increasing sum per label set.

    Example:
        >>> from repro.obs.metrics import Counter
        >>> counter = Counter("demo_total")
        >>> counter.inc(); counter.inc(2, endpoint="/v1/plan")
        >>> (counter.value(), counter.value(endpoint="/v1/plan"))
        (1.0, 2.0)
    """

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        self._add(_label_key(labels), amount)

    def labels(self, **labels: str) -> "_CounterChild":
        """A handle on one label set; its label key is computed once."""
        return _CounterChild(self, _label_key(labels))

    def _add(self, key: LabelKey, amount: float) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum across every label set of the family."""
        with self._lock:
            return sum(self._values.values())

    def reset(self) -> None:
        with self._lock:
            self._values.clear()

    def samples(self) -> dict:
        with self._lock:
            return {
                _render_labels(key) or "": value
                for key, value in sorted(self._values.items())
            }

    def render(self) -> List[str]:
        lines = self._header()
        with self._lock:
            items = sorted(self._values.items())
        if not items:
            lines.append(f"{self.name} 0")
        for key, value in items:
            lines.append(f"{self.name}{_render_labels(key)} {_format(value)}")
        return lines


class Gauge(_Metric):
    """A value that can go up and down (in-flight requests, heap depth).

    Example:
        >>> from repro.obs.metrics import Gauge
        >>> gauge = Gauge("demo_in_flight")
        >>> gauge.inc(); gauge.inc(); gauge.dec()
        >>> gauge.value()
        1.0
    """

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: str) -> None:
        self._set(_label_key(labels), value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        self._add(_label_key(labels), amount)

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self._add(_label_key(labels), -amount)

    def set_max(self, value: float, **labels: str) -> None:
        """Raise the gauge to ``value`` if it is below it (peak tracking)."""
        self._set_max(_label_key(labels), value)

    def labels(self, **labels: str) -> "_GaugeChild":
        """A handle on one label set; its label key is computed once."""
        return _GaugeChild(self, _label_key(labels))

    def _set(self, key: LabelKey, value: float) -> None:
        with self._lock:
            self._values[key] = float(value)

    def _add(self, key: LabelKey, amount: float) -> None:
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def _set_max(self, key: LabelKey, value: float) -> None:
        with self._lock:
            if value > self._values.get(key, float("-inf")):
                self._values[key] = float(value)

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def reset(self) -> None:
        with self._lock:
            self._values.clear()

    def samples(self) -> dict:
        with self._lock:
            return {
                _render_labels(key) or "": value
                for key, value in sorted(self._values.items())
            }

    def render(self) -> List[str]:
        lines = self._header()
        with self._lock:
            items = sorted(self._values.items())
        if not items:
            lines.append(f"{self.name} 0")
        for key, value in items:
            lines.append(f"{self.name}{_render_labels(key)} {_format(value)}")
        return lines


class _HistogramSample:
    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, num_buckets: int) -> None:
        self.bucket_counts = [0] * num_buckets
        self.sum = 0.0
        self.count = 0


class Histogram(_Metric):
    """Cumulative histogram with fixed bucket boundaries per label set.

    Example:
        >>> from repro.obs.metrics import Histogram
        >>> histogram = Histogram("demo_seconds", buckets=(0.1, 1.0))
        >>> for value in (0.05, 0.5, 5.0):
        ...     histogram.observe(value)
        >>> histogram.count(), round(histogram.sum(), 2)
        (3, 5.55)
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        bounds = _bounds(buckets)
        if not bounds:
            raise ConfigurationError(f"histogram {self.name!r} needs >= 1 bucket")
        if len(set(bounds)) != len(bounds):
            raise ConfigurationError(
                f"histogram {self.name!r} has duplicate bucket boundaries"
            )
        self.buckets = bounds
        self._samples: Dict[LabelKey, _HistogramSample] = {}

    def observe(self, value: float, **labels: str) -> None:
        self._observe(_label_key(labels), value)

    def labels(self, **labels: str) -> "_HistogramChild":
        """A handle on one label set; its label key is computed once."""
        return _HistogramChild(self, _label_key(labels))

    def _observe(self, key: LabelKey, value: float) -> None:
        value = float(value)
        index = bisect_left(self.buckets, value)
        with self._lock:
            sample = self._samples.get(key)
            if sample is None:
                sample = self._samples[key] = _HistogramSample(len(self.buckets))
            if index < len(self.buckets):
                sample.bucket_counts[index] += 1
            sample.sum += value
            sample.count += 1

    def count(self, **labels: str) -> int:
        with self._lock:
            sample = self._samples.get(_label_key(labels))
            return sample.count if sample else 0

    def sum(self, **labels: str) -> float:
        with self._lock:
            sample = self._samples.get(_label_key(labels))
            return sample.sum if sample else 0.0

    def reset(self) -> None:
        with self._lock:
            self._samples.clear()

    def samples(self) -> dict:
        with self._lock:
            return {
                _render_labels(key) or "": {
                    "count": sample.count,
                    "sum": sample.sum,
                    "buckets": {
                        _format(bound): count
                        for bound, count in zip(
                            self.buckets, _cumulative(sample.bucket_counts)
                        )
                    },
                }
                for key, sample in sorted(self._samples.items())
            }

    def render(self) -> List[str]:
        lines = self._header()
        with self._lock:
            items = [
                (key, list(sample.bucket_counts), sample.sum, sample.count)
                for key, sample in sorted(self._samples.items())
            ]
        for key, bucket_counts, total, count in items:
            running = 0
            for bound, bucket_count in zip(self.buckets, bucket_counts):
                running += bucket_count
                labels = _render_labels(key, [("le", _format(bound))])
                lines.append(f"{self.name}_bucket{labels} {running}")
            labels = _render_labels(key, [("le", "+Inf")])
            lines.append(f"{self.name}_bucket{labels} {count}")
            lines.append(f"{self.name}_sum{_render_labels(key)} {_format(total)}")
            lines.append(f"{self.name}_count{_render_labels(key)} {count}")
        if not items:
            lines.append(f"{self.name}_count 0")
        return lines


class _Child:
    """One label set of a family, as returned by ``family.labels(...)``.

    The handle stores the family and the label key, not a sample, so it
    keeps counting (from zero) after :meth:`MetricsRegistry.reset`.  It
    creates no sample until first used, so binding a handle leaves the
    rendered text unchanged.
    """

    __slots__ = ("_family", "_key")

    def __init__(self, family: _Metric, key: LabelKey) -> None:
        self._family = family
        self._key = key


class _CounterChild(_Child):
    def inc(self, amount: float = 1.0) -> None:
        self._family._add(self._key, amount)


class _GaugeChild(_Child):
    def set(self, value: float) -> None:
        self._family._set(self._key, value)

    def inc(self, amount: float = 1.0) -> None:
        self._family._add(self._key, amount)

    def dec(self, amount: float = 1.0) -> None:
        self._family._add(self._key, -amount)

    def set_max(self, value: float) -> None:
        self._family._set_max(self._key, value)


class _HistogramChild(_Child):
    def observe(self, value: float) -> None:
        self._family._observe(self._key, value)


def _bounds(buckets: Sequence[float]) -> Tuple[float, ...]:
    """Histogram boundaries in canonical form: sorted floats."""
    return tuple(sorted(float(b) for b in buckets))


def _cumulative(counts: Iterable[int]) -> List[int]:
    out: List[int] = []
    running = 0
    for count in counts:
        running += count
        out.append(running)
    return out


def _format(value: float) -> str:
    """Prometheus-friendly number: integral floats render without ``.0``."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class MetricsRegistry:
    """Process-wide family registry with get-or-create registration.

    Example:
        >>> from repro.obs.metrics import MetricsRegistry
        >>> registry = MetricsRegistry()
        >>> requests = registry.counter("requests_total", "served requests")
        >>> requests.inc(endpoint="/v1/plan")
        >>> 'requests_total{endpoint="/v1/plan"} 1' in registry.render_prometheus()
        True
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    def _get_or_create(self, name: str, factory, kind: type) -> _Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise ConfigurationError(
                        f"metric {name!r} is already registered as a "
                        f"{existing.kind}, not a {kind.kind}"
                    )
                return existing
            metric = self._metrics[name] = factory()
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, lambda: Counter(name, help), Counter)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name, help), Gauge)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        metric = self._get_or_create(
            name, lambda: Histogram(name, help, buckets), Histogram
        )
        assert isinstance(metric, Histogram)
        if metric.buckets != _bounds(buckets):
            raise ConfigurationError(
                f"histogram {name!r} is already registered with buckets "
                f"{metric.buckets}; re-registration must match"
            )
        return metric

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._metrics))

    def reset(self) -> None:
        """Zero every sample; registrations (names, buckets) survive."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.reset()

    def snapshot(self) -> dict:
        """Point-in-time JSON-ready view: ``{name: {kind, samples}}``."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        return {
            name: {"kind": metric.kind, "help": metric.help, "samples": metric.samples()}
            for name, metric in metrics
        }

    def render_prometheus(self) -> str:
        """The whole registry in the Prometheus text exposition format."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        lines: List[str] = []
        for _, metric in metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"


#: The process-wide default registry every instrumented module records to.
_DEFAULT = MetricsRegistry()
_DEFAULT_LOCK = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (what ``/v1/metrics`` renders)."""
    return _DEFAULT


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide default registry; returns the previous one.

    Intended for tests that need a clean slate without disturbing the
    module-level metric handles other modules already hold (prefer
    :meth:`MetricsRegistry.reset` + delta assertions where possible).
    """
    global _DEFAULT
    with _DEFAULT_LOCK:
        previous = _DEFAULT
        _DEFAULT = registry
        return previous
