"""Process-wide metrics: counters, gauges and histograms.

The registry is the numeric side of the observability layer: spans say
*where time went*, metrics say *how often things happened* (cache misses
by reason, strata built, representatives selected, invocations modeled).

Determinism contract: every aggregation is order-independent where the
serial pipeline is (counters and histograms add; gauges take the value
from the *last* merge call, and the engine merges worker snapshots in
task input order), and metric keys fold their labels in sorted order —
so a ``jobs=4`` run merges to exactly the serial run's snapshot. The
property test in ``tests/observability/test_metrics.py`` enforces this
end to end through the evaluation engine.

Only deterministic values belong in histograms (sizes, counts — never
wall-clock durations; durations live in spans).
"""

from __future__ import annotations

import bisect
import itertools
import math
import os
import threading
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.observability import state

#: Default histogram bucket upper bounds: powers of 4 spanning 1 .. ~10^9
#: (sizes/counts); one overflow bucket catches the rest.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(4.0**i for i in range(16))

#: Serializes registry updates: a server counts on its event loop and on
#: its lane threads at once. A forked child gets a fresh lock, since its
#: copy may have been taken while another thread held it.
_lock = threading.Lock()
os.register_at_fork(after_in_child=_lock._at_fork_reinit)


def metric_key(name: str, labels: Mapping[str, object]) -> str:
    """Fold labels into the metric name, sorted for determinism.

    >>> metric_key("cache.miss", {"reason": "absent"})
    'cache.miss{reason=absent}'
    >>> metric_key("cache.miss", {})
    'cache.miss'
    """
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


@dataclass
class Histogram:
    """Fixed-bound histogram with exact count/sum/min/max sidecars."""

    bounds: tuple[float, ...] = DEFAULT_BUCKETS
    counts: list[int] = field(default_factory=list)  # len(bounds) + 1
    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        self.observe_many((value,))

    def observe_many(self, values: Iterable[float]) -> None:
        """Count each value in turn, in one call.

        The state equals one :meth:`observe` per value: the total adds in
        order, and ``min``/``max`` keep the first extreme value with its
        Python type.
        """
        values = list(values)
        total = self.total
        for value in values:
            # The first bound >= value (bounds ascend); NaN compares false
            # to every bound.
            bucket = (
                bisect.bisect_left(self.bounds, value)
                if value == value
                else len(self.bounds)
            )
            self.counts[bucket] += 1
            total += value
        self.total = total
        self.count += len(values)
        self.min = min(itertools.chain((self.min,), values))
        self.max = max(itertools.chain((self.max,), values))

    def merge(self, other: "Histogram") -> None:
        if tuple(other.bounds) != tuple(self.bounds):
            raise ValueError("cannot merge histograms with different bounds")
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Histogram":
        return cls(
            bounds=tuple(payload["bounds"]),
            counts=list(payload["counts"]),
            count=int(payload["count"]),
            total=float(payload["total"]),
            min=math.inf if payload.get("min") is None else float(payload["min"]),
            max=-math.inf if payload.get("max") is None else float(payload["max"]),
        )


class MetricsRegistry:
    """Counters, gauges and histograms keyed by labeled metric names."""

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------- write

    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        key = metric_key(name, labels)
        with _lock:
            self._counters[key] = self._counters.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels) -> None:
        self._gauges[metric_key(name, labels)] = float(value)

    def observe(self, name: str, value: float, **labels) -> None:
        self.observe_many(name, (value,), **labels)

    def observe_many(self, name: str, values: Iterable[float], **labels) -> None:
        """:meth:`observe` each value; no values leave no histogram."""
        values = list(values)
        if not values:
            return
        key = metric_key(name, labels)
        with _lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = Histogram()
            histogram.observe_many(values)

    # -------------------------------------------------------------- read

    @property
    def counters(self) -> dict[str, float]:
        return dict(self._counters)

    @property
    def gauges(self) -> dict[str, float]:
        return dict(self._gauges)

    def histogram(self, name: str, **labels) -> Histogram | None:
        return self._histograms.get(metric_key(name, labels))

    def counter(self, name: str, **labels) -> float:
        return self._counters.get(metric_key(name, labels), 0.0)

    # ---------------------------------------------- snapshot / merge

    def snapshot(self) -> dict:
        """JSON-able, deterministically ordered view of the registry."""
        with _lock:
            return {
                "counters": {k: self._counters[k] for k in sorted(self._counters)},
                "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
                "histograms": {
                    k: self._histograms[k].to_dict() for k in sorted(self._histograms)
                },
            }

    def merge(self, snapshot: Mapping) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and histogram buckets add; gauges take the merged
        snapshot's value (callers merge in task input order, which makes
        the result identical to serial execution).
        """
        with _lock:
            for key, value in snapshot.get("counters", {}).items():
                self._counters[key] = self._counters.get(key, 0.0) + value
            for key, value in snapshot.get("gauges", {}).items():
                self._gauges[key] = float(value)
            for key, payload in snapshot.get("histograms", {}).items():
                shipped = Histogram.from_dict(payload)
                mine = self._histograms.get(key)
                if mine is None:
                    self._histograms[key] = shipped
                else:
                    mine.merge(shipped)

    def reset(self) -> None:
        with _lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry (what the manifest snapshots)."""
    return _registry


# Module-level conveniences: no-ops when observability is off, so hot
# paths pay one boolean check.


def inc(name: str, value: float = 1.0, **labels) -> None:
    if state.enabled():
        _registry.inc(name, value, **labels)


def set_gauge(name: str, value: float, **labels) -> None:
    if state.enabled():
        _registry.set_gauge(name, value, **labels)


def observe(name: str, value: float, **labels) -> None:
    if state.enabled():
        _registry.observe(name, value, **labels)


def observe_many(name: str, values: Iterable[float], **labels) -> None:
    if state.enabled():
        _registry.observe_many(name, values, **labels)
