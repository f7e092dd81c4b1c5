"""The metrics registry: counters, gauges, histograms, and timers.

Prometheus-shaped but dependency-free.  A :class:`MetricsRegistry` holds
*families* keyed by name; a family without labels is itself the metric,
and :meth:`~Metric.labels` derives labeled children on demand
(``contacts_total{scheme="photonet"}``).  Snapshots export as plain JSON
dicts (round-trippable through :func:`registry_from_snapshot`) or as the
Prometheus text exposition format (:meth:`MetricsRegistry.to_prometheus`).
"""

from __future__ import annotations

import math
import time
from functools import wraps
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "registry_from_snapshot",
    "DEFAULT_BUCKETS",
]

#: Default histogram buckets (seconds-ish scale; override per metric).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

LabelPairs = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelPairs:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_labels(labels: LabelPairs) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in labels)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class Metric:
    """Base of one metric family and of its labeled children.

    The unlabeled family object doubles as the default (label-free)
    series, so ``registry.counter("x").inc()`` works without an explicit
    ``labels()`` call.
    """

    kind = "untyped"

    def __init__(self, name: str, help: str = "", _labels: LabelPairs = ()) -> None:
        self.name = name
        self.help = help
        self.label_pairs = _labels
        self._children: Dict[LabelPairs, "Metric"] = {}

    def labels(self, **labels: Any) -> "Metric":
        """The child series carrying *labels* (created on first use)."""
        key = _label_key(labels)
        if not key:
            return self
        child = self._children.get(key)
        if child is None:
            child = type(self)(self.name, self.help, _labels=key)
            self._children[key] = child
        return child

    def _series(self) -> Iterator["Metric"]:
        """This metric's own series (if touched) plus every labeled child."""
        if self._touched():
            yield self
        for key in sorted(self._children):
            yield self._children[key]

    # -- overridden by concrete kinds --------------------------------

    def _touched(self) -> bool:
        raise NotImplementedError

    def _sample_value(self) -> Any:
        raise NotImplementedError

    def _load_sample(self, value: Any) -> None:
        raise NotImplementedError

    def _prometheus_lines(self) -> List[str]:
        raise NotImplementedError

    def snapshot_samples(self) -> List[Dict[str, Any]]:
        return [
            {"labels": dict(series.label_pairs), "value": series._sample_value()}
            for series in self._series()
        ]


class Counter(Metric):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", _labels: LabelPairs = ()) -> None:
        super().__init__(name, help, _labels)
        self.value: float = 0.0
        self._used = False

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount
        self._used = True

    def _touched(self) -> bool:
        return self._used

    def _sample_value(self) -> float:
        return self.value

    def _load_sample(self, value: Any) -> None:
        self.value = float(value)
        self._used = True

    def _prometheus_lines(self) -> List[str]:
        return [
            f"{self.name}{_format_labels(s.label_pairs)} {_format_value(s.value)}"
            for s in self._series()
        ]


class Gauge(Metric):
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", _labels: LabelPairs = ()) -> None:
        super().__init__(name, help, _labels)
        self.value: float = 0.0
        self._used = False

    def set(self, value: float) -> None:
        self.value = float(value)
        self._used = True

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.set(self.value - amount)

    def _touched(self) -> bool:
        return self._used

    def _sample_value(self) -> float:
        return self.value

    def _load_sample(self, value: Any) -> None:
        self.set(float(value))

    def _prometheus_lines(self) -> List[str]:
        return [
            f"{self.name}{_format_labels(s.label_pairs)} {_format_value(s.value)}"
            for s in self._series()
        ]


class Histogram(Metric):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        _labels: LabelPairs = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, _labels)
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        self.bucket_counts: List[int] = [0] * len(self.buckets)
        self.count = 0
        self.sum = 0.0

    def labels(self, **labels: Any) -> "Histogram":
        key = _label_key(labels)
        if not key:
            return self
        child = self._children.get(key)
        if child is None:
            child = Histogram(self.name, self.help, _labels=key, buckets=self.buckets)
            self._children[key] = child
        return child  # type: ignore[return-value]

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        # Per-bucket (non-cumulative) counts; the Prometheus exporter
        # accumulates at render time, so recording stays O(log-ish) cheap
        # and snapshots merge by plain addition.
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1
                break

    def quantile(self, q: float) -> float:
        """Estimate the *q*-quantile (0..1) from the bucket counts.

        Prometheus-style linear interpolation inside the winning bucket
        (lower edge 0 for the first).  Returns ``nan`` with no
        observations; values beyond the last finite bucket clamp to its
        upper bound.  This is what the service layer's per-variant
        p50/p95 latency report is computed from.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return float("nan")
        target = q * self.count
        cumulative = 0
        lower = 0.0
        for bound, count in zip(self.buckets, self.bucket_counts):
            if count and cumulative + count >= target:
                fraction = max(0.0, min(1.0, (target - cumulative) / count))
                return lower + (bound - lower) * fraction
            cumulative += count
            lower = bound
        return self.buckets[-1] if self.buckets else float("nan")

    def latency_summary(self) -> Dict[str, Optional[float]]:
        """``{count, p50_s, p95_s, p99_s}`` of a series observed in seconds.

        The one latency shape the service stats, the service manifest and
        the load report all carry.  An empty series has ``None`` (JSON
        ``null``) quantiles, never ``nan``, which strict JSON rejects.
        """
        return {
            "count": self.count,
            "p50_s": self.quantile(0.50) if self.count else None,
            "p95_s": self.quantile(0.95) if self.count else None,
            "p99_s": self.quantile(0.99) if self.count else None,
        }

    def _touched(self) -> bool:
        return self.count > 0

    def _sample_value(self) -> Dict[str, Any]:
        return {
            "buckets": {
                _format_value(bound): count
                for bound, count in zip(self.buckets, self.bucket_counts)
            },
            "count": self.count,
            "sum": self.sum,
        }

    def _load_sample(self, value: Any) -> None:
        self.buckets = tuple(float(b) for b in value["buckets"])
        self.bucket_counts = [int(c) for c in value["buckets"].values()]
        self.count = int(value["count"])
        self.sum = float(value["sum"])

    def _prometheus_lines(self) -> List[str]:
        lines: List[str] = []
        for series in self._series():
            assert isinstance(series, Histogram)
            cumulative = 0
            for bound, count in zip(series.buckets, series.bucket_counts):
                cumulative += count
                labels = series.label_pairs + (("le", _format_value(bound)),)
                lines.append(f"{self.name}_bucket{_format_labels(labels)} {cumulative}")
            labels = series.label_pairs + (("le", "+Inf"),)
            lines.append(f"{self.name}_bucket{_format_labels(labels)} {series.count}")
            lines.append(
                f"{self.name}_sum{_format_labels(series.label_pairs)} "
                f"{_format_value(series.sum)}"
            )
            lines.append(
                f"{self.name}_count{_format_labels(series.label_pairs)} {series.count}"
            )
        return lines


class Timer(Metric):
    """Duration statistics (count/total/min/max) with a context manager.

    Exported to Prometheus as a summary (``_count``/``_sum``); min and max
    survive in the JSON snapshot.  :meth:`time` measures a ``with`` block,
    :meth:`wrap` decorates a function, and :meth:`observe` records an
    externally measured duration (what the hot paths use, so disabled runs
    never call :func:`time.perf_counter`).
    """

    kind = "timer"

    def __init__(self, name: str, help: str = "", _labels: LabelPairs = ()) -> None:
        super().__init__(name, help, _labels)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.sum += seconds
        self.min = min(self.min, seconds)
        self.max = max(self.max, seconds)

    def time(self) -> "_TimerContext":
        return _TimerContext(self)

    def wrap(self, fn: Callable) -> Callable:
        @wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            with self.time():
                return fn(*args, **kwargs)

        return timed

    def _touched(self) -> bool:
        return self.count > 0

    def _sample_value(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max,
        }

    def _load_sample(self, value: Any) -> None:
        self.count = int(value["count"])
        self.sum = float(value["sum"])
        self.min = float(value["min"]) if self.count else math.inf
        self.max = float(value["max"])

    def _prometheus_lines(self) -> List[str]:
        lines: List[str] = []
        for series in self._series():
            assert isinstance(series, Timer)
            lines.append(
                f"{self.name}_sum{_format_labels(series.label_pairs)} "
                f"{_format_value(series.sum)}"
            )
            lines.append(
                f"{self.name}_count{_format_labels(series.label_pairs)} {series.count}"
            )
        return lines


class _TimerContext:
    def __init__(self, timer: Timer) -> None:
        self.timer = timer
        self._start = 0.0

    def __enter__(self) -> "_TimerContext":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.timer.observe(time.perf_counter() - self._start)


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram, "timer": Timer}

#: Prometheus has no native "timer"; export those families as summaries.
_PROMETHEUS_TYPE = {"counter": "counter", "gauge": "gauge",
                    "histogram": "histogram", "timer": "summary"}


class MetricsRegistry:
    """A named collection of metric families with JSON/Prometheus export.

    Factories are idempotent: asking twice for the same name returns the
    same family (asking with a conflicting kind raises).  The registry is
    deliberately synchronous and unlocked -- the simulator is single-
    threaded and worker processes each own a private registry.
    """

    def __init__(self) -> None:
        self._families: Dict[str, Metric] = {}

    # -- factories ----------------------------------------------------

    def _family(self, cls: type, name: str, help: str, **kwargs: Any) -> Metric:
        existing = self._families.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}, "
                    f"requested {cls.kind}"  # type: ignore[attr-defined]
                )
            return existing
        family = cls(name, help, **kwargs)
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "") -> Counter:
        return self._family(Counter, name, help)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._family(Gauge, name, help)  # type: ignore[return-value]

    def histogram(
        self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._family(Histogram, name, help, buckets=buckets)  # type: ignore[return-value]

    def timer(self, name: str, help: str = "") -> Timer:
        return self._family(Timer, name, help)  # type: ignore[return-value]

    # -- introspection / export --------------------------------------

    def families(self) -> List[Metric]:
        return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> Optional[Metric]:
        return self._families.get(name)

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-serializable snapshot of every family and series."""
        return {
            family.name: {
                "kind": family.kind,
                "help": family.help,
                "samples": family.snapshot_samples(),
            }
            for family in self.families()
        }

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        chunks: List[str] = []
        for family in self.families():
            if family.help:
                chunks.append(f"# HELP {family.name} {family.help}")
            chunks.append(f"# TYPE {family.name} {_PROMETHEUS_TYPE[family.kind]}")
            chunks.extend(family._prometheus_lines())
        return "\n".join(chunks) + ("\n" if chunks else "")


def registry_from_snapshot(snapshot: Dict[str, Any]) -> MetricsRegistry:
    """Rebuild a registry from :meth:`MetricsRegistry.snapshot` output.

    Round-trip property: ``registry_from_snapshot(r.snapshot()).snapshot()
    == r.snapshot()`` for every touched series.
    """
    registry = MetricsRegistry()
    for name, family_payload in snapshot.items():
        kind = family_payload["kind"]
        cls = _KINDS.get(kind)
        if cls is None:
            raise ValueError(f"unknown metric kind {kind!r} for {name!r}")
        factory = {
            "counter": registry.counter,
            "gauge": registry.gauge,
            "histogram": registry.histogram,
            "timer": registry.timer,
        }[kind]
        family = factory(name, family_payload.get("help", ""))
        for sample in family_payload.get("samples", []):
            series = family.labels(**sample.get("labels", {}))
            series._load_sample(sample["value"])
    return registry
