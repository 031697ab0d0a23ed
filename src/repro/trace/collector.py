"""The per-domain trace collector.

Owns everything stateful about tracing in one domain:

* **id minting** — trace and span ids come from counters prefixed with
  the domain name, so they are unique across a federation and
  identical across identically-seeded runs (no RNG draws, no wall
  clock);
* **head-based sampling** — the keep/drop decision is made once per
  trace at the root, by a deterministic accumulator (``sampling=0.5``
  keeps exactly every other trace), and travels with the context;
* **the ring buffer** — finished spans land in a bounded ring; when it
  overflows, the oldest span is dropped and counted, never the newest;
* **per-layer metrics** — as it finishes, each span is counted and its
  duration filed in its layer's fixed-bucket histogram in a
  :class:`~repro.trace.metrics.MetricsRegistry`, so the ring is all the
  collector keeps per span, and the registry is complete whenever read;
* **analysis views** — span trees, critical-path extraction, per-layer
  self-time breakdowns, and a flame-style text renderer.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Optional

from repro.trace.context import UNSAMPLED, TraceContext
from repro.trace.metrics import MetricsRegistry
from repro.trace.span import NULL_SPAN, Span


class SpanNode:
    """One span plus its children, assembled by :meth:`forest`."""

    __slots__ = ("span", "children")

    def __init__(self, span: Span) -> None:
        self.span = span
        self.children: List["SpanNode"] = []

    @property
    def self_ms(self) -> float:
        """Duration not explained by child spans (clamped at zero)."""
        childless = self.span.duration_ms - sum(
            child.span.duration_ms for child in self.children)
        return childless if childless > 0.0 else 0.0

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


class TraceCollector:
    """Bounded, sampled span store for one domain."""

    #: Finished spans the ring keeps; the oldest is dropped first.
    capacity = 16384

    def __init__(self, domain_name: str, clock) -> None:
        self.domain_name = domain_name
        self.clock = clock
        self._sampling = 1.0
        #: A span counter and a duration histogram per layer, each span
        #: folded in as it finishes (see :meth:`Span.finish`).
        self.metrics = MetricsRegistry()
        self._spans: "deque[Span]" = deque(maxlen=self.capacity)
        self._cleared = 0
        self._trace_seq = 0
        self._span_seq = 0
        self._sample_accum = 0.0
        #: The (counter, histogram) of each layer in :attr:`metrics`,
        #: found without formatting their names.
        self._layer_metrics: Dict[str, tuple] = {}
        self.traces_started = 0
        self.traces_sampled = 0
        self.spans_recorded = 0

    def set_sampling(self, rate: float) -> None:
        """Sample *rate* of the traces started from now on (head
        sampling, spread evenly: 0.5 keeps every other trace)."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError("sampling rate must be in [0, 1]")
        self._sampling = rate

    # -- recording ----------------------------------------------------------

    def start_trace(self, baggage: Optional[Dict[str, str]] = None
                    ) -> TraceContext:
        """Root of a new causal chain; the head sampling decision."""
        self.traces_started += 1
        self._sample_accum += self._sampling
        if self._sample_accum < 1.0 - 1e-12:
            return UNSAMPLED
        self._sample_accum -= 1.0
        self.traces_sampled += 1
        self._trace_seq += 1
        return TraceContext(
            f"T{self._trace_seq}@{self.domain_name}", "",
            parent_span_id=None, sampled=True,
            baggage=dict(baggage) if baggage else None)

    def span(self, name: str, layer: str,
             parent, node: str = "",
             tags: Optional[Dict[str, Any]] = None):
        """Open a child span under *parent* (no-op when unsampled).

        *parent* is a :class:`TraceContext` (from the wire or a trace
        root) or another :class:`Span` — both expose the same surface.
        The returned Span is its own handle and context.
        """
        if parent is None or not parent.sampled:
            return NULL_SPAN
        self._span_seq += 1
        return Span(self, parent.trace_id,
                    f"S{self._span_seq}@{self.domain_name}",
                    parent.span_id or None, name, layer, node,
                    self.clock.now, tags, parent.baggage)

    @property
    def spans_dropped(self) -> int:
        """Spans pushed out of the full ring (oldest-first)."""
        return self.spans_recorded - self._cleared - len(self._spans)

    # -- metrics --------------------------------------------------------------

    def _add_layer(self, layer: str) -> tuple:
        """The (counter, histogram) pair of a layer's first span."""
        pair = self._layer_metrics[layer] = (
            self.metrics.counter(f"layer.{layer}.spans"),
            self.metrics.histogram(f"layer.{layer}.ms"))
        return pair

    # -- retrieval ----------------------------------------------------------

    def spans(self, trace_id: Optional[str] = None) -> List[Span]:
        if trace_id is None:
            return list(self._spans)
        return [span for span in self._spans if span.trace_id == trace_id]

    def trace_ids(self) -> List[str]:
        """Distinct trace ids in first-recorded order."""
        seen: Dict[str, None] = {}
        for span in self._spans:
            seen.setdefault(span.trace_id, None)
        return list(seen)

    # -- analysis -----------------------------------------------------------

    def forest(self, trace_id: str) -> List[SpanNode]:
        """Assemble this collector's spans for a trace into trees.

        Spans whose parent was recorded in *another* domain's collector
        (the far side of a federation boundary) become local roots, so
        a partial view still renders.
        """
        nodes = {span.span_id: SpanNode(span)
                 for span in self.spans(trace_id)}
        roots: List[SpanNode] = []
        for span in self.spans(trace_id):
            node = nodes[span.span_id]
            parent = (nodes.get(span.parent_span_id)
                      if span.parent_span_id else None)
            if parent is None:
                roots.append(node)
            else:
                parent.children.append(node)
        for node in nodes.values():
            node.children.sort(
                key=lambda child: (child.span.start_ms,
                                   child.span.span_id))
        roots.sort(key=lambda root: (root.span.start_ms,
                                     root.span.span_id))
        return roots

    def tree(self, trace_id: str) -> Optional[SpanNode]:
        roots = self.forest(trace_id)
        return roots[0] if roots else None

    def critical_path(self, trace_id: str) -> List[Span]:
        """Root-to-leaf chain through the latest-finishing child."""
        node = self.tree(trace_id)
        path: List[Span] = []
        while node is not None:
            path.append(node.span)
            if not node.children:
                break
            # Latest finish wins; on a tie the earlier start (the
            # longer, enclosing span) is the true critical segment.
            node = max(node.children,
                       key=lambda child: (child.span.end_ms or 0.0,
                                          -child.span.start_ms))
        return path

    def breakdown(self, trace_id: str) -> Dict[str, float]:
        """Virtual self-time attributed to each layer, for one trace.

        Summing the values reproduces the root spans' total duration
        (children are nested and sequential), which is the no-gaps
        property benchmark C17 asserts.
        """
        layer_ms: Dict[str, float] = {}
        for root in self.forest(trace_id):
            for node in root.walk():
                layer = node.span.layer
                layer_ms[layer] = layer_ms.get(layer, 0.0) + node.self_ms
        return layer_ms

    def layer_breakdown(self) -> Dict[str, Dict[str, float]]:
        """Self-time per layer aggregated over every retained trace."""
        totals: Dict[str, Dict[str, float]] = {}
        for trace_id in self.trace_ids():
            for root in self.forest(trace_id):
                for node in root.walk():
                    entry = totals.setdefault(
                        node.span.layer, {"spans": 0, "self_ms": 0.0})
                    entry["spans"] += 1
                    entry["self_ms"] += node.self_ms
        return totals

    def render(self, trace_id: str, include_tags: bool = True) -> str:
        """Flame-style indented text view of one trace."""
        lines: List[str] = [f"trace {trace_id}"]

        def emit(node: SpanNode, depth: int) -> None:
            span = node.span
            tags = ""
            if include_tags and span.tags:
                tags = "  {" + ", ".join(
                    f"{key}={span.tags[key]!r}"
                    for key in sorted(span.tags)) + "}"
            status = "" if span.status == "ok" else f" !{span.status}"
            lines.append(
                f"{'  ' * depth}{span.name} [{span.layer}] "
                f"{span.duration_ms:.3f}ms "
                f"(self {node.self_ms:.3f}ms){status}{tags}")
            for child in node.children:
                emit(child, depth + 1)

        for root in self.forest(trace_id):
            emit(root, 1)
        return "\n".join(lines)

    def stats(self) -> Dict[str, Any]:
        return {
            "sampling": self._sampling,
            "traces_started": self.traces_started,
            "traces_sampled": self.traces_sampled,
            "spans_recorded": self.spans_recorded,
            "spans_dropped": self.spans_dropped,
            "spans_retained": len(self._spans),
        }

    def clear(self) -> None:
        self._cleared += len(self._spans)
        self._spans.clear()
