"""Observability primitives: counters, gauges, histograms, one process
registry and a digest-keyed memo.

Deliberately dependency-free and cheap: a counter increment is one
``+=`` under a lock shared per registry, and a histogram observation is
one bucket increment (log-spaced bounds, found by bisection).
Percentiles are estimated from the bucket cumulative distribution with
linear interpolation inside the winning bucket — the same approach
Prometheus takes — so memory stays O(buckets) no matter how many
observations arrive.

A :class:`MetricsRegistry` snapshot is a plain JSON-able dict.  Each
analysis server keeps its own registry and ships its snapshot in
``STATS`` frames, each trace-store root keeps one for its integrity
counters, and :data:`PROCESS` holds the process-wide subsystem
counters (``vm.compile.*``, ``staticpass.*``, ``partition.*``,
``fuzz.*``), which the server reports under ``subsystems``.  Subsystems
bump them once per compile, analysis or replay, never per event.
"""

from __future__ import annotations

import bisect
import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, Hashable, List, Optional, Sequence, TypeVar


def _default_bounds() -> List[float]:
    """Log-spaced latency bounds: 0.05 ms .. ~10 minutes, factor 1.35."""
    bounds = []
    value = 0.05
    while value < 600_000.0:
        bounds.append(value)
        value *= 1.35
    return bounds


class Counter:
    """Monotonically increasing count."""

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """A value that goes up and down (queue depth, in-flight requests)."""

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value = 0

    def set(self, value) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: int = 1) -> None:
        with self._lock:
            self.value -= amount


class Histogram:
    """Fixed-bucket histogram with percentile estimation.

    ``observe`` takes milliseconds (by convention; the math is
    unit-agnostic).  ``percentile(p)`` interpolates within the bucket
    containing the p-quantile; observations beyond the last bound are
    clamped to the observed maximum.
    """

    def __init__(self, lock: threading.Lock,
                 bounds: Optional[Sequence[float]] = None) -> None:
        self._lock = lock
        self.bounds = list(bounds) if bounds is not None else _default_bounds()
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self.bucket_counts[index] += 1
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    def percentile(self, p: float) -> float:
        """Estimate the p-th percentile (p in [0, 100])."""
        if self.count == 0:
            return 0.0
        rank = (p / 100.0) * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                continue
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= rank:
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = (self.bounds[index] if index < len(self.bounds)
                         else self.max)
                lower = max(lower, self.min if self.min != float("inf") else lower)
                upper = min(upper, self.max) if self.max else upper
                if upper <= lower:
                    return upper
                fraction = (rank - previous) / bucket_count
                return lower + (upper - lower) * fraction
        return self.max

    def summary(self) -> dict:
        with self._lock:
            if self.count == 0:
                return {"count": 0}
            return {
                "count": self.count,
                "mean": self.total / self.count,
                "min": self.min,
                "max": self.max,
                "p50": self.percentile(50),
                "p95": self.percentile(95),
                "p99": self.percentile(99),
                # Sparse bucket counts (index -> count over the default
                # log-spaced bounds) so snapshots from several servers
                # can be merged into cluster-wide percentiles — see
                # merge_histogram_summaries.
                "buckets": {
                    str(index): count
                    for index, count in enumerate(self.bucket_counts)
                    if count
                },
            }


def merge_histogram_summaries(summaries: Sequence[dict]) -> dict:
    """Merge per-server histogram summaries into one cluster-wide view.

    Summaries must come from histograms over the *default* log-spaced
    bounds (every serve histogram does).  Bucket counts add exactly;
    percentiles are re-estimated from the merged cumulative
    distribution with the same interpolation a single histogram uses,
    so a cluster-wide p99 is as trustworthy as a single server's.
    """
    bounds = _default_bounds()
    bucket_counts = [0] * (len(bounds) + 1)
    count = 0
    total = 0.0
    minimum = float("inf")
    maximum = 0.0
    for summary in summaries:
        if not summary or not summary.get("count"):
            continue
        count += summary["count"]
        total += summary.get("mean", 0.0) * summary["count"]
        minimum = min(minimum, summary.get("min", minimum))
        maximum = max(maximum, summary.get("max", 0.0))
        for index, bucket_count in (summary.get("buckets") or {}).items():
            bucket_counts[int(index)] += bucket_count
    if count == 0:
        return {"count": 0}
    merged = Histogram(threading.Lock(), bounds)
    merged.bucket_counts = bucket_counts
    merged.count = count
    merged.total = total
    merged.min = minimum
    merged.max = maximum
    return merged.summary()


class MetricsRegistry:
    """Named counters/gauges/histograms with a JSON-able snapshot."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._started = time.time()

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters.setdefault(name, Counter(self._lock))
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges.setdefault(name, Gauge(self._lock))
        return metric

    def histogram(self, name: str,
                  bounds: Optional[Sequence[float]] = None) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms.setdefault(
                name, Histogram(self._lock, bounds)
            )
        return metric

    def snapshot(self) -> dict:
        """One consistent-enough view of every metric, JSON-able."""
        snap = {
            "uptime_seconds": time.time() - self._started,
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: h.summary() for name, h in sorted(self._histograms.items())
            },
        }
        counters = snap["counters"]
        hits = counters.get("cache_hits", 0)
        misses = counters.get("cache_misses", 0)
        if hits + misses:
            snap["cache_hit_rate"] = hits / (hits + misses)
        return snap

    def subsystems(self) -> Dict[str, dict]:
        """Counters and gauges grouped by the prefix before their last
        dot: ``vm.compile.hits`` is ``hits`` of ``vm.compile``."""
        grouped: Dict[str, dict] = {}
        metrics = [*self._counters.items(), *self._gauges.items()]
        for name, metric in sorted(metrics, key=lambda item: item[0]):
            prefix, _, key = name.rpartition(".")
            grouped.setdefault(prefix, {})[key] = metric.value
        return grouped


#: This process's subsystem counters (see the module docstring).
PROCESS = MetricsRegistry()

T = TypeVar("T")


class Memo:
    """A bounded LRU, keyed by content digest, shared by a whole process.

    Counts ``hits`` and ``misses`` and keeps ``entries`` in
    :data:`PROCESS` under ``prefix`` (``Memo("vm.compile.", 128)``
    counts ``vm.compile.hits``).  A miss builds outside the lock, so two
    threads missing one key may both build; either result is the same.
    """

    def __init__(self, prefix: str, capacity: int) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self.hits = PROCESS.counter(prefix + "hits")
        self.misses = PROCESS.counter(prefix + "misses")
        self.size = PROCESS.gauge(prefix + "entries")

    def get_or_build(self, key: Hashable, build: Callable[[], T]) -> T:
        """The cached value for ``key``, or ``build()``'s, now cached."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self.hits.inc()
                return value
        self.misses.inc()
        value = build()
        with self._lock:
            self._entries[key] = value
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            self.size.set(len(self._entries))
        return value

    def clear(self) -> None:
        """Drop every entry and zero the counts."""
        with self._lock:
            self._entries.clear()
            for metric in (self.hits, self.misses, self.size):
                metric.value = 0
