"""The node manager.

Holds declarative *server specs* for one node.  ``boot()`` (run at start
and after every restart) creates the capsules, instantiates and exports
the default servers and advertises them via the domain trader.  The
management service is itself an exported ADT, so other nodes manage this
one through perfectly ordinary ODP invocations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.comp.constraints import EnvironmentConstraints
from repro.comp.model import OdpObject, operation, signature_of
from repro.comp.reference import InterfaceRef


@dataclass
class ServerSpec:
    """Declarative description of one default server."""

    name: str
    capsule_name: str
    factory: Callable[[], Any]
    constraints: Optional[EnvironmentConstraints] = None
    #: Trader advertisement: properties dict, or None to skip trading.
    advertise: Optional[Dict[str, Any]] = None
    service_type: Optional[str] = None


@dataclass
class RunningServer:
    spec: ServerSpec
    ref: InterfaceRef
    offer_id: Optional[str] = None
    running: bool = True


class NodeManager:
    """Boot, start, stop and advertise servers on one node."""

    def __init__(self, nucleus) -> None:
        self.nucleus = nucleus
        self.specs: List[ServerSpec] = []
        self.servers: Dict[str, RunningServer] = {}
        self.boots = 0
        self._management_ref: Optional[InterfaceRef] = None

    @property
    def domain(self):
        return self.nucleus.domain

    def declare(self, spec: ServerSpec) -> None:
        """Add a default server to be created at every boot."""
        if any(s.name == spec.name for s in self.specs):
            raise ValueError(f"duplicate server spec {spec.name!r}")
        self.specs.append(spec)

    # -- lifecycle --------------------------------------------------------------

    def boot(self) -> List[RunningServer]:
        """(Re)create all declared servers and advertise them."""
        self.boots += 1
        started = []
        for spec in self.specs:
            if spec.name in self.servers and \
                    self.servers[spec.name].running:
                continue
            started.append(self.start(spec.name))
        if self._management_ref is None:
            self._export_management()
        return started

    def start(self, name: str) -> RunningServer:
        spec = self._spec(name)
        capsule = self._capsule(spec.capsule_name)
        implementation = spec.factory()
        ref = capsule.export(implementation,
                             constraints=spec.constraints)
        offer_id = None
        if spec.advertise is not None:
            offer_id = self.domain.trader.export(
                ref.signature, ref,
                properties=dict(spec.advertise,
                                node=self.nucleus.node_address),
                service_type=spec.service_type)
        server = RunningServer(spec, ref, offer_id)
        self.servers[name] = server
        return server

    def stop(self, name: str) -> None:
        server = self.servers.get(name)
        if server is None or not server.running:
            raise KeyError(f"server {name!r} is not running")
        capsule = self._capsule(server.spec.capsule_name)
        capsule.close(server.ref.interface_id)
        if server.offer_id is not None:
            self.domain.trader.withdraw(server.offer_id)
        server.running = False

    def status(self) -> Dict[str, bool]:
        return {name: s.running for name, s in self.servers.items()}

    # -- internals ----------------------------------------------------------------

    def _spec(self, name: str) -> ServerSpec:
        for spec in self.specs:
            if spec.name == name:
                return spec
        raise KeyError(f"no server spec named {name!r}")

    def _capsule(self, name: str):
        if name in self.nucleus.capsules:
            return self.nucleus.capsules[name]
        return self.nucleus.create_capsule(name)

    def _export_management(self) -> None:
        capsule = self._capsule("management")
        service = ManagementService(self)
        self._management_ref = capsule.export(service)
        self.domain.trader.export(
            signature_of(ManagementService), self._management_ref,
            properties={"node": self.nucleus.node_address,
                        "role": "management"},
            service_type="management")

    @property
    def management_ref(self) -> Optional[InterfaceRef]:
        return self._management_ref


class ManagementService(OdpObject):
    """Remote-invocable management interface for one node."""

    def __init__(self, manager: NodeManager) -> None:
        self._manager = manager

    @operation(returns=[[str]], readonly=True)
    def list_servers(self):
        return sorted(self._manager.servers)

    @operation(params=[str], returns=[bool], readonly=True)
    def is_running(self, name):
        server = self._manager.servers.get(name)
        return bool(server and server.running)

    @operation(params=[str])
    def start_server(self, name):
        self._manager.start(name)

    @operation(params=[str])
    def stop_server(self, name):
        self._manager.stop(name)

    @operation(returns=[int], readonly=True)
    def boot_count(self):
        return self._manager.boots

    @operation(returns=["any"], readonly=True)
    def node_health(self):
        """Observed liveness of every domain node, as judged by the
        supervisor's failure detector (empty when no supervisor runs —
        absence of monitoring is not evidence either way)."""
        domain = self._manager.domain
        if domain._supervisor is None:
            return {}
        detector = domain.supervisor.detector
        return {address: detector.node_alive(address)
                for address in sorted(domain.nuclei)}
