"""The network fabric.

Two delivery primitives are offered:

* :meth:`Network.request` — synchronous request/response used by the RPC
  protocol adapters.  It charges a full round trip (plus server processing
  time reported by the handler) to the virtual clock and raises on crash,
  partition or probabilistic loss.
* :meth:`Network.post` — asynchronous one-way delivery through the event
  scheduler, used for announcements, group multicast, heartbeats and stream
  frames.  Lost messages vanish silently, exactly as on a real network.

Both consult the :class:`~repro.net.fault.FaultPlan` on every leg, so a
partition that forms while a message is in flight still prevents delivery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.errors import MessageLostError, NodeUnreachableError
from repro.net.fault import LOST, UNREACHABLE, FaultPlan
from repro.net.latency import LatencyModel
from repro.net.message import NetMessage
from repro.sim.rand import DeterministicRandom
from repro.sim.scheduler import Scheduler

RequestHandler = Callable[[str, bytes], bytes]
DeliveryHandler = Callable[[NetMessage], None]


@dataclass
class NodeStats:
    """Per-node traffic counters: every message a node sent, counted
    when it leaves (lost on the way or not), and what arrived."""

    messages_sent: int = 0
    messages_received: int = 0
    bytes_received: int = 0


@dataclass
class TransitRecord:
    """Leg timings of the most recent synchronous round trip.

    The transport reads this right after :meth:`Network.request` returns
    to attribute the network span's time to wire legs vs server work.
    """

    out_ms: float = 0.0
    server_ms: float = 0.0
    back_ms: float = 0.0
    bytes_out: int = 0
    bytes_back: int = 0


class NetworkNode:
    """A host on the simulated network.

    ``native_format`` names the node's local data representation (the
    heterogeneity the paper requires federation/access transparency to
    bridge).  Handlers are registered by the engineering layer.
    """

    def __init__(self, address: str, native_format: str = "packed") -> None:
        self.address = address
        self.native_format = native_format
        self.request_handler: Optional[RequestHandler] = None
        self.delivery_handlers: Dict[str, DeliveryHandler] = {}
        #: Protocols this node's endpoints speak.  "rrp" (the standard
        #: request-reply protocol) is always available; others are
        #: enabled per node and may have different latency profiles —
        #: section 5.4's "several protocols by which an interface can be
        #: accessed ... different qualities of service".
        self.protocols = {"rrp"}
        self.stats = NodeStats()

    def enable_protocol(self, name: str) -> None:
        self.protocols.add(name)

    def on_request(self, handler: RequestHandler) -> None:
        self.request_handler = handler

    def on_deliver(self, kind: str, handler: DeliveryHandler) -> None:
        self.delivery_handlers[kind] = handler

    def __repr__(self) -> str:
        return f"NetworkNode({self.address}, fmt={self.native_format})"


class Network:
    """Registry of nodes plus the two delivery primitives."""

    def __init__(self, scheduler: Scheduler,
                 latency: Optional[LatencyModel] = None,
                 faults: Optional[FaultPlan] = None,
                 rng: Optional[DeterministicRandom] = None) -> None:
        self.scheduler = scheduler
        self.latency = latency if latency is not None else LatencyModel()
        self.faults = faults if faults is not None else FaultPlan()
        self.rng = rng if rng is not None else DeterministicRandom(0)
        #: Latency jitter draws from its own fork so that turning
        #: probabilistic loss on or off never perturbs delay samples
        #: (and vice versa) — one seed, independent streams per effect.
        self.jitter_rng = self.rng.fork("latency-jitter")
        self._nodes: Dict[str, NetworkNode] = {}
        #: Per-protocol latency models; protocols not listed use the
        #: default model.
        self.protocol_latency: Dict[str, LatencyModel] = {}
        self.total_messages = 0
        self.total_bytes = 0
        #: Leg timings of the last completed request() round trip.
        self.last_transit = TransitRecord()

    def register_protocol(self, name: str,
                          latency: LatencyModel) -> None:
        """Give a protocol its own latency/bandwidth profile."""
        self.protocol_latency[name] = latency

    def _latency_for(self, protocol: str) -> LatencyModel:
        return self.protocol_latency.get(protocol, self.latency)

    # -- topology --------------------------------------------------------

    def add_node(self, address: str,
                 native_format: str = "packed") -> NetworkNode:
        if address in self._nodes:
            raise ValueError(f"duplicate node address {address!r}")
        node = NetworkNode(address, native_format)
        self._nodes[address] = node
        self.faults.register_node(address)
        return node

    def node(self, address: str) -> NetworkNode:
        try:
            return self._nodes[address]
        except KeyError:
            raise NodeUnreachableError(f"unknown node {address!r}") from None

    def nodes(self):
        return list(self._nodes.values())

    def has_node(self, address: str) -> bool:
        return address in self._nodes

    # -- internals ---------------------------------------------------------

    def _request_leg(self, latency: LatencyModel, source: str,
                     destination: str, size: int) -> float:
        """Refuse one leg of a round trip, or count it and return its
        latency (inflated when the link is gray)."""
        factor = self.faults.leg_verdict(source, destination, self.rng)
        if factor == UNREACHABLE:
            raise NodeUnreachableError(
                f"{source} cannot reach {destination} "
                f"(crash, cut link or partition)")
        src = self._nodes.get(source)
        if src is not None:  # sent, whatever becomes of it
            src.stats.messages_sent += 1
        if factor == LOST:
            raise MessageLostError(
                f"message {source}->{destination} lost in transit")
        self._account(destination, size)
        return (latency.delay(source, destination, size, self.jitter_rng)
                * factor)

    def _account(self, destination: str, size: int) -> None:
        """Count a message that got through to *destination*."""
        self.total_messages += 1
        self.total_bytes += size
        dst = self._nodes.get(destination)
        if dst is not None:
            dst.stats.messages_received += 1
            dst.stats.bytes_received += size

    # -- synchronous request/response ---------------------------------------

    def request(self, source: str, destination: str, payload: bytes,
                protocol: str = "rrp") -> bytes:
        """Round-trip exchange.  Raises on unreachable nodes or lost legs."""
        dst = self.node(destination)
        if dst.request_handler is None:
            raise NodeUnreachableError(
                f"node {destination} has no request handler")
        latency = self._latency_for(protocol)

        # Outbound leg.
        out_ms = self._request_leg(latency, source, destination,
                                   len(payload))
        self.scheduler.clock.advance(out_ms)

        before_server = self.scheduler.now
        reply = dst.request_handler(source, payload)
        server_ms = self.scheduler.now - before_server

        # Return leg (faults may have arisen while the server worked).
        back_ms = self._request_leg(latency, destination, source,
                                    len(reply))
        self.scheduler.clock.advance(back_ms)
        self.last_transit = TransitRecord(out_ms, server_ms, back_ms,
                                          len(payload), len(reply))
        return reply

    # -- asynchronous one-way delivery ---------------------------------------

    def post(self, source: str, destination: str, payload: bytes,
             kind: str = "data",
             headers: Optional[Dict[str, str]] = None) -> None:
        """Fire-and-forget delivery via the scheduler.

        Loss and crash of the *source* are evaluated at send time, the
        whole link (either end's crash, cut, partition) again at delivery
        time: in flight to or from a node that dies, a message is dropped.
        """
        factor = self.faults.leg_verdict(source, destination, self.rng,
                                         one_way=True)
        if factor == UNREACHABLE:
            return  # a dead node sends nothing
        src = self._nodes.get(source)
        if src is not None:  # sent, whatever becomes of it
            src.stats.messages_sent += 1
        if factor == LOST:
            return  # a lost message vanishes
        now = self.scheduler.clock.now
        message = NetMessage(source, destination, payload, kind,
                             dict(headers) if headers else None, now)
        delay = self.latency.delay(source, destination, len(payload),
                                   self.jitter_rng) * factor
        # A lambda, not a partial: the ledger charges a fired action to
        # the package that defines it.
        self.scheduler.at(now + delay, lambda: self._deliver(message),
                          label="net")

    def _deliver(self, message: NetMessage) -> None:
        source, destination = message.source, message.destination
        if self.faults.link_blocked(source, destination):
            self.faults.drops += 1
            return
        node = self._nodes.get(destination)
        if node is None:
            return
        handler = node.delivery_handlers.get(message.kind)
        if handler is None:
            return
        self._account(destination, len(message.payload))
        handler(message)
