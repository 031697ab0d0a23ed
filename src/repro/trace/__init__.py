"""Causal tracing and metrics (paper section 7.4).

"Identification of points where network and system management
information can contribute to the provision of transparency": every
invocation carries a :class:`TraceContext` through the client stack,
the simulated network, the server nucleus and any federated hops; each
engineering layer records a :class:`Span` timestamped from the
deterministic virtual clock.  A per-domain :class:`TraceCollector`
assembles spans into trees and offers critical-path extraction,
per-layer latency breakdowns (via :class:`MetricsRegistry`) and a
flame-style text renderer.  Identically-seeded runs produce identical
traces: ids come from counters, never from wall clocks or RNG draws.
"""

from repro.trace.collector import TraceCollector
from repro.trace.context import (
    TraceContext,
    UNSAMPLED,
    current_trace,
    pop_active,
    push_active,
)
from repro.trace.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
)
from repro.trace.span import NULL_SPAN, Span

__all__ = [
    "TraceContext",
    "UNSAMPLED",
    "current_trace",
    "push_active",
    "pop_active",
    "Span",
    "NULL_SPAN",
    "TraceCollector",
    "MetricsRegistry",
    "Counter",
    "Histogram",
]
