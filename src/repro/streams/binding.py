"""Explicit stream binding.

Operational interfaces bind implicitly (holding a reference suffices);
streams need *explicit* binding parameterised by a template of enabled
flows.  The result of binding is (1) scheduled frame production over the
simulated network and (2) a control interface — a genuine ADT object that
can be exported and invoked remotely — offering start/stop/rate/status,
exactly as section 7.2 prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.comp.model import OdpObject, operation
from repro.errors import StreamError
from repro.streams.qos import QoSMonitor
from repro.streams.stream import FlowSpec, StreamEndpoint


@dataclass
class FlowBinding:
    """One enabled flow within a binding."""

    producer: StreamEndpoint
    consumer: StreamEndpoint
    producer_flow: str
    consumer_flow: str
    spec: FlowSpec
    monitor: QoSMonitor
    seq: int = 0
    event: object = None
    rate_hz: float = 0.0


class StreamManager:
    """Creates endpoints, routes frames, performs explicit binding."""

    def __init__(self, network, scheduler) -> None:
        self.network = network
        self.scheduler = scheduler
        self._endpoints: Dict[str, StreamEndpoint] = {}
        self._routes: Dict[Tuple[str, str], List[FlowBinding]] = {}
        self._handled_nodes: set = set()
        self._counter = 0

    # -- endpoints ----------------------------------------------------------------

    def create_endpoint(self, node_address: str, name: str,
                        flows: List[FlowSpec]) -> StreamEndpoint:
        self._counter += 1
        endpoint_id = f"stream-ep-{self._counter}"
        endpoint = StreamEndpoint(endpoint_id, node_address, flows, name)
        self._endpoints[endpoint_id] = endpoint
        if node_address not in self._handled_nodes:
            self.network.node(node_address).on_deliver(
                "stream", self._on_frame)
            self._handled_nodes.add(node_address)
        return endpoint

    def _on_frame(self, message) -> None:
        headers = message.headers
        endpoint = self._endpoints.get(headers.get("endpoint", ""))
        if endpoint is None:
            return
        flow = headers.get("flow", "")
        seq = int(headers.get("seq", "0"))
        sent_at = float(headers.get("sent_at", "0"))
        arrived_at = self.scheduler.now
        endpoint.deliver(flow, seq, message.payload, sent_at, arrived_at)
        for binding in self._routes.get((endpoint.endpoint_id, flow), []):
            binding.monitor.record(seq, sent_at, arrived_at)

    # -- explicit binding ----------------------------------------------------------

    def bind(self, producer: StreamEndpoint, consumer: StreamEndpoint,
             template: Optional[Dict[str, str]] = None,
             control_capsule=None) -> "StreamBinding":
        """Tie endpoints together according to *template*.

        ``template`` maps producer out-flow names to consumer in-flow
        names; ``None`` enables every same-named compatible pair.  Media
        types must match — that is the stream-type check.
        """
        pairs = self._resolve_template(producer, consumer, template)
        flows = []
        for out_name, in_name in pairs:
            out_spec = producer.flow(out_name)
            in_spec = consumer.flow(in_name)
            if out_spec.media != in_spec.media:
                raise StreamError(
                    f"flow media mismatch: {out_name!r} is "
                    f"{out_spec.media}, {in_name!r} is {in_spec.media}")
            monitor = QoSMonitor(in_name, in_spec.qos)
            flow = FlowBinding(producer, consumer, out_name, in_name,
                               out_spec, monitor,
                               rate_hz=out_spec.qos.rate_hz)
            flows.append(flow)
            self._routes.setdefault(
                (consumer.endpoint_id, in_name), []).append(flow)
        binding = StreamBinding(self, flows)
        if control_capsule is not None:
            binding.control_ref = control_capsule.export(
                BindingControl(binding))
        return binding

    def _resolve_template(self, producer, consumer, template):
        if template is not None:
            return sorted(template.items())
        pairs = []
        for name, spec in sorted(producer.flows.items()):
            if spec.direction == "out" and name in consumer.flows and \
                    consumer.flows[name].direction == "in":
                pairs.append((name, name))
        if not pairs:
            raise StreamError(
                "no compatible flows between endpoints; supply a template")
        return pairs


class StreamBinding:
    """A live set of flows with start/stop/rate control."""

    def __init__(self, manager: StreamManager,
                 flows: List[FlowBinding]) -> None:
        self.manager = manager
        self.flows = flows
        self.running = False
        self.control_ref = None

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        for flow in self.flows:
            self._schedule(flow)

    def _schedule(self, flow: FlowBinding) -> None:
        interval = 1000.0 / flow.rate_hz
        flow.event = self.manager.scheduler.every(
            interval, lambda f=flow: self._emit(f),
            label=f"stream:{flow.producer_flow}")

    def _emit(self, flow: FlowBinding) -> None:
        flow.seq += 1
        payload = flow.producer.source_for(flow.producer_flow)(flow.seq)
        self.manager.network.post(
            flow.producer.node_address, flow.consumer.node_address,
            payload, kind="stream",
            headers={
                "endpoint": flow.consumer.endpoint_id,
                "flow": flow.consumer_flow,
                "seq": str(flow.seq),
                "sent_at": repr(self.manager.scheduler.now),
            })

    def stop(self) -> None:
        self.running = False
        for flow in self.flows:
            if flow.event is not None:
                flow.event.cancel()
                flow.event = None

    def set_rate(self, flow_name: str, rate_hz: float) -> None:
        if rate_hz <= 0:
            raise StreamError("rate must be positive")
        for flow in self.flows:
            if flow.producer_flow == flow_name:
                flow.rate_hz = rate_hz
                if self.running and flow.event is not None:
                    flow.event.cancel()
                    self._schedule(flow)
                return
        raise StreamError(f"binding has no flow {flow_name!r}")

    def monitor_for(self, consumer_flow: str) -> QoSMonitor:
        for flow in self.flows:
            if flow.consumer_flow == consumer_flow:
                return flow.monitor
        raise StreamError(f"binding has no consumer flow {consumer_flow!r}")


class BindingControl(OdpObject):
    """The ADT control interface produced by explicit binding."""

    def __init__(self, binding: StreamBinding) -> None:
        self._binding = binding

    @operation()
    def start(self):
        self._binding.start()

    @operation()
    def stop(self):
        self._binding.stop()

    @operation(params=[str, float])
    def set_rate(self, flow_name, rate_hz):
        self._binding.set_rate(flow_name, rate_hz)

    @operation(returns=[str], readonly=True)
    def status(self):
        state = "running" if self._binding.running else "stopped"
        flows = ", ".join(
            f"{f.producer_flow}@{f.rate_hz}Hz" for f in self._binding.flows)
        return f"{state}: {flows}"
