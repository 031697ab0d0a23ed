"""Spans: one timed unit of work in one engineering layer.

Timestamps are virtual milliseconds read from the deterministic clock,
so a span's duration is exactly the virtual time the platform charged
while it was open — tracing itself never advances the clock.

A live :class:`Span` is three things at once, on purpose:

* the **record** that lands in the collector's ring when finished,
* the **handle** the instrumented layer tags and finishes, and
* the **trace context** child spans (and the wire) parent from — it
  exposes the same ``trace_id`` / ``span_id`` / ``sampled`` / ``baggage``
  surface as :class:`~repro.trace.context.TraceContext` plus
  ``to_wire``.

Folding the three roles into one object spares a handle and a context
object per span.  What a span allocates besides itself is its id, its
tags dict and the floats of its timestamps; its name is one string per
operation (:func:`span_name`).  Once finished, a span is a record in a
bounded ring and nothing more: its duration is folded into its layer's
metrics as it finishes.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from typing import Any, Dict, Optional

from repro.trace.context import UNSAMPLED, TraceContext


@lru_cache(maxsize=1024)
def span_name(kind: str, operation: str) -> str:
    """``kind:operation``, one string however many spans carry it.  The
    cache is bounded: an operation name can arrive from the wire."""
    return f"{kind}:{operation}"


class Span:
    """An open (or finished) span; also its own handle and context."""

    __slots__ = ("_collector", "trace_id", "span_id", "parent_span_id",
                 "name", "layer", "node", "start_ms", "end_ms", "status",
                 "tags", "baggage")

    #: Any live Span belongs to a sampled trace by construction (the
    #: collector returns NULL_SPAN otherwise).
    sampled = True

    def __init__(self, collector, trace_id: str, span_id: str,
                 parent_span_id: Optional[str], name: str, layer: str,
                 node: str, start_ms: float,
                 tags: Optional[Dict[str, Any]] = None,
                 baggage: Optional[Dict[str, str]] = None) -> None:
        self._collector = collector
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_span_id = parent_span_id
        self.name = name
        self.layer = layer
        self.node = node
        self.start_ms = start_ms
        self.end_ms: Optional[float] = None
        self.status = "open"
        self.tags: Dict[str, Any] = tags if tags is not None else {}
        self.baggage = baggage

    # -- context-compatible surface ------------------------------------------

    @property
    def context(self) -> "Span":
        """The trace position nested work parents from: this span."""
        return self

    @property
    def span(self) -> "Span":
        """The record (``None`` on :data:`NULL_SPAN` — the guard idiom)."""
        return self

    to_wire = TraceContext.to_wire

    # -- handle surface -------------------------------------------------------

    def tag(self, key: str, value) -> "Span":
        self.tags[key] = value
        return self

    def finish(self, status: str = "ok") -> "Span":
        # Idempotent: error paths may finish a span that a later shared
        # handler would finish again; only the first status is recorded.
        collector, self._collector = self._collector, None
        if collector is not None:
            end = collector.clock.now
            self.end_ms = end
            self.status = status
            collector._spans.append(self)  # maxlen ring drops the oldest
            collector.spans_recorded += 1
            # Fold into the layer's metrics now, in finish order, so the
            # ring is all a finished span leaves behind.
            # Histogram.observe written out: a finish makes no call.
            counter, histogram = (collector._layer_metrics.get(self.layer)
                                  or collector._add_layer(self.layer))
            counter.value += 1
            duration = end - self.start_ms
            histogram.bucket_counts[
                bisect_left(histogram.bounds, duration)] += 1
            histogram.count += 1
            histogram.total += duration
        return self

    # -- record surface -------------------------------------------------------

    @property
    def duration_ms(self) -> float:
        if self.end_ms is None:
            return 0.0
        return self.end_ms - self.start_ms


class NullSpan:
    """No-op span returned for unsampled traces (and traceless nodes).

    A single shared instance keeps the not-sampled fast path at a few
    attribute lookups — this is what makes sampling=0 essentially free.
    """

    __slots__ = ()

    context = UNSAMPLED
    span = None

    def tag(self, key: str, value) -> "NullSpan":
        return self

    def finish(self, status: str = "ok") -> None:
        return None


NULL_SPAN = NullSpan()
