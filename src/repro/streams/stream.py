"""Stream interfaces: typed endpoints for continuous flows."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable

from repro.errors import StreamError


@dataclass(frozen=True)
class StreamQoS:
    """Quality-of-service contract for one flow."""

    #: Frames per virtual second the producer emits.
    rate_hz: float = 25.0
    #: Maximum acceptable one-way frame latency.
    max_latency_ms: float = 50.0
    #: Maximum acceptable inter-arrival jitter.
    max_jitter_ms: float = 10.0
    #: Fraction of frames that may be lost before the contract is broken.
    max_loss: float = 0.02


@dataclass(frozen=True)
class FlowSpec:
    """One named flow within a stream interface."""

    name: str
    direction: str  # "out" (producer) or "in" (consumer)
    media: str = "data"  # "audio" | "video" | "data"
    qos: StreamQoS = StreamQoS()

    def __post_init__(self):
        if self.direction not in ("out", "in"):
            raise StreamError(
                f"flow {self.name!r}: direction must be 'out' or 'in'")


class StreamEndpoint:
    """A stream interface instance on a node.

    Producers attach a ``source`` per out-flow (``seq -> bytes``);
    consumers attach a ``sink`` per in-flow
    (``(seq, payload, sent_at, arrived_at) -> None``).
    """

    def __init__(self, endpoint_id: str, node_address: str,
                 flows: Iterable[FlowSpec], name: str = "") -> None:
        self.endpoint_id = endpoint_id
        self.node_address = node_address
        self.name = name or endpoint_id
        self.flows: Dict[str, FlowSpec] = {f.name: f for f in flows}
        self._sources: Dict[str, Callable[[int], bytes]] = {}
        self._sinks: Dict[str, Callable] = {}

    def flow(self, name: str) -> FlowSpec:
        try:
            return self.flows[name]
        except KeyError:
            raise StreamError(
                f"endpoint {self.endpoint_id} has no flow {name!r}"
            ) from None

    def attach_source(self, flow_name: str,
                      source: Callable[[int], bytes]) -> None:
        if self.flow(flow_name).direction != "out":
            raise StreamError(
                f"flow {flow_name!r} is not an out-flow")
        self._sources[flow_name] = source

    def attach_sink(self, flow_name: str, sink: Callable) -> None:
        if self.flow(flow_name).direction != "in":
            raise StreamError(f"flow {flow_name!r} is not an in-flow")
        self._sinks[flow_name] = sink

    def source_for(self, flow_name: str) -> Callable[[int], bytes]:
        source = self._sources.get(flow_name)
        if source is None:
            raise StreamError(
                f"endpoint {self.endpoint_id}: no source attached to "
                f"flow {flow_name!r}")
        return source

    def deliver(self, flow_name: str, seq: int, payload: bytes,
                sent_at: float, arrived_at: float) -> None:
        sink = self._sinks.get(flow_name)
        if sink is not None:
            sink(seq, payload, sent_at, arrived_at)
