"""Trace contexts: the causal identity an invocation carries.

A :class:`TraceContext` names one position in one trace: the trace it
belongs to, the span that is currently open, and that span's parent.
It travels inside the invocation envelope (see
``Nucleus.encode_context``), so causality survives marshalling, the
simulated network, gateway interception and nested invocations.

The *ambient* stack is how causality crosses a server-side dispatch
into calls the implementation itself makes: the capsule pushes the
executing span's context around the method call, and any channel
opened underneath adopts it as parent instead of starting a fresh
trace.  The simulation is single-threaded, so a plain stack suffices.

Head-based sampling is a property of the whole trace: the decision is
made once, at the root, and the (un)sampled verdict propagates with
the context so no layer ever records a fragment of an unsampled trace.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional


class TraceContext:
    """Immutable-by-convention position in a trace."""

    __slots__ = ("trace_id", "span_id", "parent_span_id", "sampled",
                 "baggage")

    def __init__(self, trace_id: str, span_id: str,
                 parent_span_id: Optional[str] = None,
                 sampled: bool = True,
                 baggage: Optional[Dict[str, str]] = None) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_span_id = parent_span_id
        self.sampled = sampled
        self.baggage = baggage or None

    def to_wire(self) -> str:
        """Compact ``tid|sid[|k=v;...]`` string.

        One short string instead of a nested dict keeps the marshalled
        envelope within a couple of wire tokens — the C17 overhead
        budget is mostly spent here.  The sender's own parent link is
        deliberately omitted: the receiving side only ever parents new
        spans *under* the carried span, never beside it.
        """
        if self.baggage:
            bag = ";".join(f"{key}={value}" for key, value
                           in sorted(self.baggage.items()))
            return f"{self.trace_id}|{self.span_id}|{bag}"
        return f"{self.trace_id}|{self.span_id}"

    @staticmethod
    def from_wire(obj: Any) -> Optional["TraceContext"]:
        """The context a wire string names; ``None`` if it names none."""
        if not isinstance(obj, str) or not obj:
            return None
        parts = obj.split("|")
        if not parts[0]:
            return None
        baggage = None
        if len(parts) > 2 and parts[2]:
            items = [item.split("=", 1) for item in parts[2].split(";")]
            if any(len(item) != 2 for item in items):
                return None
            baggage = dict(items)
        return TraceContext(
            parts[0], parts[1] if len(parts) > 1 else "",
            None, sampled=True, baggage=baggage)

    def __repr__(self) -> str:
        if not self.sampled:
            return "TraceContext(unsampled)"
        return (f"TraceContext({self.trace_id}, span={self.span_id}, "
                f"parent={self.parent_span_id})")


#: The shared not-sampled verdict: propagated so nested invocations of
#: an unsampled trace stay unsampled (head-based sampling).  Never
#: mutate its baggage.
UNSAMPLED = TraceContext("", "", None, sampled=False)


# -- the ambient span stack ---------------------------------------------------

_ACTIVE: List[TraceContext] = []


def push_active(context: TraceContext) -> None:
    """Enter a span's scope (capsule dispatch does this)."""
    _ACTIVE.append(context)


def pop_active() -> None:
    _ACTIVE.pop()


def current_trace() -> Optional[TraceContext]:
    """The innermost span scope, if any — what a nested call joins."""
    return _ACTIVE[-1] if _ACTIVE else None
