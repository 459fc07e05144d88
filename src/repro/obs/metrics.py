"""Process-wide counters, gauges and histograms: the metrics half of
:mod:`repro.obs`.

A :class:`MetricsRegistry` holds named instruments:

- **counters** — monotonically accumulated floats (``localsearch.moves``,
  ``stream.warm_updates``);
- **gauges** — last-written values (``portfolio.jobs``);
- **histograms** — value distributions with count/sum/min/max/mean and
  percentiles in the snapshot (``portfolio.member.cost``,
  ``shard.member.seconds``).

Instrumentation sites call the module-level helpers :func:`inc`,
:func:`set_gauge` and :func:`observe`, which write into the default
registry.  Collection is **disabled by default**: every helper first
checks one module-level boolean and returns immediately when metrics are
off, so instrumented hot loops cost a single branch.  Turn collection on
with :func:`enable_metrics` (or the ``with collecting():`` context
manager), read results with :meth:`MetricsRegistry.snapshot`, and
compare two snapshots with :func:`diff_snapshots`.

The registry is process-local.  Forked pool workers therefore do not
write into the parent's registry; parallel code ships small aggregates
back over the result channel instead (see :mod:`repro.parallel`).

Stdlib only — no numpy, no third-party dependencies.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Any

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "collecting",
    "diff_snapshots",
    "disable_metrics",
    "enable_metrics",
    "get_registry",
    "inc",
    "metrics_enabled",
    "observe",
    "set_gauge",
]


class Counter:
    """A monotonically accumulated float."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """A last-write-wins value (``None`` until first set)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float | None = None

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """A distribution of observed values.

    Running count/sum/min/max are maintained exactly; the raw values are
    retained (capped at ``_MAX_KEPT``, uniformly thinned beyond it) so
    snapshots can report percentiles without a third-party sketch.
    """

    __slots__ = ("name", "count", "total", "minimum", "maximum", "_kept", "_stride", "_skip")

    _MAX_KEPT = 4096

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._kept: list[float] = []
        self._stride = 1  # keep every _stride-th observation
        self._skip = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self._skip += 1
        if self._skip >= self._stride:
            self._skip = 0
            self._kept.append(value)
            if len(self._kept) >= self._MAX_KEPT:
                # Thin uniformly: keep every other retained value and
                # double the stride for future observations.
                self._kept = self._kept[::2]
                self._stride *= 2

    def percentile(self, q: float) -> float | None:
        """Nearest-rank percentile over the retained values (q in [0, 100])."""
        if not self._kept:
            return None
        ranked = sorted(self._kept)
        rank = min(len(ranked) - 1, max(0, math.ceil(q / 100.0 * len(ranked)) - 1))
        return ranked[rank]

    def summary(self) -> dict[str, float | None]:
        if self.count == 0:
            return {"count": 0, "sum": 0.0, "min": None, "max": None, "mean": None,
                    "p50": None, "p90": None, "p99": None}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.total / self.count,
            "p50": self.percentile(50.0),
            "p90": self.percentile(90.0),
            "p99": self.percentile(99.0),
        }


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    Instruments are created lazily on first touch; creation takes the
    registry lock, subsequent updates are plain attribute writes (safe
    under the GIL for the float accumulations used here).
    """

    def __init__(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instrument access ---------------------------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(name, Counter(name))
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(name, Gauge(name))
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(name, Histogram(name))
        return instrument

    # -- recording (no enabled check here; helpers below do that) ------

    def inc(self, name: str, amount: float = 1.0) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # -- lifecycle ------------------------------------------------------

    def reset(self) -> None:
        """Drop every instrument (the enabled flag is left as-is)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # -- export ---------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A point-in-time copy of every instrument, JSON-friendly."""
        with self._lock:
            return {
                "counters": {name: c.value for name, c in sorted(self._counters.items())},
                "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
                "histograms": {
                    name: h.summary() for name, h in sorted(self._histograms.items())
                },
            }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent)


def diff_snapshots(before: dict[str, Any], after: dict[str, Any]) -> dict[str, Any]:
    """What happened between two :meth:`MetricsRegistry.snapshot` calls.

    Counters are subtracted; gauges report the later value; histograms
    report the delta of their exact accumulators (count and sum — the
    retained-value statistics are not differentiable).
    """
    counters = {
        name: value - before.get("counters", {}).get(name, 0.0)
        for name, value in after.get("counters", {}).items()
    }
    histograms = {}
    for name, summary in after.get("histograms", {}).items():
        earlier = before.get("histograms", {}).get(name, {"count": 0, "sum": 0.0})
        histograms[name] = {
            "count": summary["count"] - earlier.get("count", 0),
            "sum": summary["sum"] - earlier.get("sum", 0.0),
        }
    return {
        "counters": {name: value for name, value in counters.items() if value != 0.0},
        "gauges": dict(after.get("gauges", {})),
        "histograms": {
            name: delta for name, delta in histograms.items() if delta["count"] != 0
        },
    }


# -- the default (process-wide) registry ----------------------------------

_default = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry the module helpers write to."""
    return _default


def metrics_enabled() -> bool:
    return _default.enabled


def enable_metrics() -> None:
    _default.enabled = True


def disable_metrics() -> None:
    _default.enabled = False


class _Collecting:
    """Context manager scoping metric collection (restores the prior flag)."""

    __slots__ = ("_previous",)

    def __enter__(self) -> MetricsRegistry:
        self._previous = _default.enabled
        _default.enabled = True
        return _default

    def __exit__(self, *exc_info: Any) -> None:
        _default.enabled = self._previous


def collecting() -> _Collecting:
    """Enable metrics for a block: ``with collecting() as registry: ...``."""
    return _Collecting()


def inc(name: str, amount: float = 1.0) -> None:
    """Add to a counter — free (one branch) while metrics are disabled."""
    if not _default.enabled:
        return
    _default.inc(name, amount)


def set_gauge(name: str, value: float) -> None:
    """Write a gauge — free (one branch) while metrics are disabled."""
    if not _default.enabled:
        return
    _default.set_gauge(name, value)


def observe(name: str, value: float) -> None:
    """Record into a histogram — free (one branch) while metrics are disabled."""
    if not _default.enabled:
        return
    _default.observe(name, value)
