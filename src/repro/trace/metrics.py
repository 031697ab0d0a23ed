"""A small metrics model: counters and fixed-bucket histograms.

Histogram bucket bounds are fixed at construction (never adapted to
the data), so two identically-seeded runs produce bit-identical
snapshots — the determinism guarantee the rest of the platform makes
extends to its measurements.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterable, Optional, Tuple

#: Default latency buckets (virtual ms): sub-protocol-tick to batch-job.
DEFAULT_LATENCY_BOUNDS_MS: Tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 1000.0,
)


class Counter:
    """A monotonically increasing count.  Its writer bumps ``value``
    directly: an attribute increment, not a method call per event."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0


class Histogram:
    """Fixed-bound cumulative histogram (plus exact count/sum)."""

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total")

    def __init__(self, name: str,
                 bounds: Iterable[float] = DEFAULT_LATENCY_BOUNDS_MS
                 ) -> None:
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted ascending")
        if not self.bounds:
            raise ValueError("histogram needs at least one bound")
        # One bucket per bound, plus the +inf overflow bucket.
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        """File one value.  The trace collector's writer,
        :meth:`~repro.trace.span.Span.finish`, does this inline, without
        the call; this is the reference its tests hold it to."""
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-upper-bound estimate of the q-quantile (0 < q <= 1)."""
        if not 0.0 < q <= 1.0:
            raise ValueError("quantile must be in (0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, bucket in enumerate(self.bucket_counts):
            seen += bucket
            if seen >= rank:
                if index < len(self.bounds):
                    return self.bounds[index]
                return float("inf")
        return float("inf")

    def snapshot(self) -> Dict[str, Any]:
        cumulative: Dict[str, int] = {}
        running = 0
        for bound, bucket in zip(self.bounds, self.bucket_counts):
            running += bucket
            cumulative[f"le_{bound:g}"] = running
        cumulative["le_inf"] = self.count
        return {"count": self.count, "sum": self.total,
                "buckets": cumulative}


class MetricsRegistry:
    """Named metrics, created on first use."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self.counters.get(name)
        if metric is None:
            metric = self.counters[name] = Counter(name)
        return metric

    def histogram(self, name: str,
                  bounds: Optional[Iterable[float]] = None) -> Histogram:
        metric = self.histograms.get(name)
        if metric is None:
            metric = self.histograms[name] = Histogram(
                name, bounds if bounds is not None
                else DEFAULT_LATENCY_BOUNDS_MS)
        return metric

    def snapshot(self) -> Dict[str, Any]:
        """Deterministically ordered dump of every metric."""
        return {
            "counters": {name: self.counters[name].value
                         for name in sorted(self.counters)},
            "histograms": {name: self.histograms[name].snapshot()
                           for name in sorted(self.histograms)},
        }
