"""Domains and the federation graph.

A domain is one autonomous organisation: it owns nodes and runs its *own*
infrastructure services — relocator, trader, transaction manager, secret
authority, security policies, replica groups, stable repository, migrator,
recovery, passivation and garbage collection.  No service spans domains;
only federation links do (sections 4.2, 6: no hierarchical management
structure can be assumed).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.engine.nucleus import Nucleus
from repro.errors import FederationError
from repro.federation.links import FederationLink
from repro.net.network import Network
from repro.sim.scheduler import Scheduler
from repro.util.ids import IdMinter


class Domain:
    """One administratively autonomous system in the federation."""

    def __init__(self, name: str, federation: "Federation") -> None:
        self.name = name
        self.federation = federation
        self.minter = IdMinter()
        self.nuclei: Dict[str, Nucleus] = {}
        self._gateway: Optional[Tuple[str, str]] = None  # (node, capsule)
        #: (gateway capsule, interface id) -> the channel that delivers
        #: federated invocations arriving home (federation.layer).
        self._deliveries: Dict = {}
        #: (foreign interface id, epoch, principal) -> the local reference
        #: of its representative (federation.proxies.materialize_proxy).
        self._proxy_cache: Dict = {}
        # Services (created lazily so each subsystem stays optional).
        self._relocator = None
        self._tx_manager = None
        self._authority = None
        self._policies = None
        self._audit = None
        self._groups = None
        self._repository = None
        self._migrator = None
        self._recovery = None
        self._passivation = None
        self._trader = None
        self._collector = None
        self._tracer = None
        self._supervisor = None
        self._shards = None
        self._leases = None

    # -- structure -------------------------------------------------------------

    @property
    def scheduler(self) -> Scheduler:
        return self.federation.scheduler

    @property
    def network(self) -> Network:
        return self.federation.network

    def mint(self, prefix: str) -> str:
        return f"{self.name}.{self.minter.mint(prefix)}"

    def add_node(self, address: str,
                 native_format: str = "packed") -> Nucleus:
        node = self.network.add_node(address, native_format)
        nucleus = Nucleus(self.network, node, domain=self)
        self.nuclei[address] = nucleus
        self.federation.node_domain[address] = self.name
        # Every node can intercept at the boundary: gateways are not a
        # single point of failure.
        nucleus.create_capsule("gateway")
        if self._gateway is None:
            self._gateway = (address, "gateway")
        return nucleus

    def gateway(self) -> Tuple[str, str]:
        if self._gateway is None:
            raise FederationError(
                f"domain {self.name} has no nodes, hence no gateway")
        return self._gateway

    def gateways(self) -> List[Tuple[str, str]]:
        """All boundary interception points, primary first."""
        primary = self._gateway
        others = [(address, "gateway") for address in sorted(self.nuclei)
                  if primary is None or address != primary[0]]
        return ([primary] if primary is not None else []) + others

    def gateway_capsule(self):
        node, capsule_name = self.gateway()
        return self.nuclei[node].capsules[capsule_name]

    def wire_format_of(self, node_address: str) -> str:
        return self.network.node(node_address).native_format

    def owns_node(self, node_address: str) -> bool:
        return node_address in self.nuclei

    def defined_here(self, ref) -> bool:
        """Is this domain the reference's defining context?"""
        if ref.context:
            return ref.home_domain == self.name
        return any(self.owns_node(p.node) for p in ref.paths)

    # -- services (lazy) ----------------------------------------------------------

    @property
    def relocator(self):
        if self._relocator is None:
            from repro.relocation.relocator import Relocator
            self._relocator = Relocator(self.name)
        return self._relocator

    @property
    def tx_manager(self):
        if self._tx_manager is None:
            from repro.tx.transaction import TransactionManager

            def live_nucleus():
                faults = self.network.faults
                for nucleus in self.nuclei.values():
                    if not faults.is_crashed(nucleus.node_address):
                        return nucleus
                return None

            home = next(iter(self.nuclei.values()), None)
            self._tx_manager = TransactionManager(
                self.name, registry=self.federation.tx_registry,
                home_nucleus=home, nucleus_provider=live_nucleus)
        return self._tx_manager

    @property
    def authority(self):
        if self._authority is None:
            from repro.security.secrets import SecretAuthority
            self._authority = SecretAuthority(self.name)
        return self._authority

    @property
    def policies(self):
        if self._policies is None:
            from repro.security.policy import PolicyStore
            self._policies = PolicyStore()
        return self._policies

    @property
    def audit(self):
        if self._audit is None:
            from repro.security.audit import AuditLog
            self._audit = AuditLog(self.name)
        return self._audit

    @property
    def groups(self):
        if self._groups is None:
            from repro.groups.registry import GroupRegistry
            self._groups = GroupRegistry(self)
        return self._groups

    @property
    def repository(self):
        if self._repository is None:
            from repro.storage.repository import StableRepository
            self._repository = StableRepository(
                self.name, clock=self.scheduler.clock)
        return self._repository

    @property
    def migrator(self):
        if self._migrator is None:
            from repro.migration.migrator import Migrator
            self._migrator = Migrator(self)
        return self._migrator

    @property
    def recovery(self):
        if self._recovery is None:
            from repro.recovery.recover import RecoveryManager
            self._recovery = RecoveryManager(self)
        return self._recovery

    @property
    def passivation(self):
        if self._passivation is None:
            from repro.storage.passivation import PassivationManager
            self._passivation = PassivationManager(self)
        return self._passivation

    @property
    def trader(self):
        if self._trader is None:
            from repro.trading.trader import Trader
            self._trader = Trader(self.name, domain=self)
        return self._trader

    @property
    def collector(self):
        if self._collector is None:
            from repro.gc.collector import Collector
            self._collector = Collector(self)
        return self._collector

    @property
    def tracer(self):
        """The domain's causal trace collector (section 7.4)."""
        if self._tracer is None:
            from repro.trace.collector import TraceCollector
            self._tracer = TraceCollector(self.name, self.scheduler.clock)
        return self._tracer

    @property
    def supervisor(self):
        """The self-healing supervisor (detect -> diagnose -> repair).

        Created lazily and *not* started: call ``start()`` to begin
        heartbeating and supervision.
        """
        if self._supervisor is None:
            from repro.heal.supervisor import Supervisor
            self._supervisor = Supervisor(self)
        return self._supervisor

    @property
    def shards(self):
        """The sharded-object-space registry (``repro.shard``)."""
        if self._shards is None:
            from repro.shard.space import ShardManager
            self._shards = ShardManager(self)
        return self._shards

    @property
    def leases(self):
        """The lease authority for client-side caching (``repro.lease``)."""
        if self._leases is None:
            from repro.lease.authority import LeaseAuthority
            self._leases = LeaseAuthority(self)
        return self._leases

    # -- hooks used by the engine ---------------------------------------------------

    def notice_export(self, nucleus, capsule, interface, ref) -> None:
        """Every export registers its birth location (section 5.4)."""
        self.relocator.register(ref)

    def current_transaction(self):
        return self.tx_manager.current() if self._tx_manager else None

    def credentials_for(self, principal: str) -> Dict[str, str]:
        return self.authority.credentials_for(principal)


class Federation:
    """The arbitrary graph of autonomous domains."""

    def __init__(self, scheduler: Scheduler, network: Network) -> None:
        self.scheduler = scheduler
        self.network = network
        self.domains: Dict[str, Domain] = {}
        self.node_domain: Dict[str, str] = {}
        self._links: Dict[Tuple[str, str], FederationLink] = {}
        #: Shared transaction registry: server layers resolve incoming
        #: transaction ids here (2PC control messages still cross the wire).
        self.tx_registry: Dict[str, object] = {}
        from repro.tx.deadlock import WaitsForGraph
        self.waits_graph = WaitsForGraph()

    # -- domains ------------------------------------------------------------------

    def create_domain(self, name: str) -> Domain:
        if name in self.domains:
            raise ValueError(f"duplicate domain {name!r}")
        domain = Domain(name, self)
        self.domains[name] = domain
        return domain

    def domain(self, name: str) -> Domain:
        try:
            return self.domains[name]
        except KeyError:
            raise FederationError(f"unknown domain {name!r}") from None

    def domain_of_node(self, node_address: str) -> Optional[str]:
        return self.node_domain.get(node_address)

    def domain_of_ref(self, ref) -> Optional[str]:
        if ref.context:
            return ref.home_domain
        if ref.paths:
            return self.domain_of_node(ref.primary_path().node)
        return None

    # -- links ------------------------------------------------------------------

    def link(self, source: str, target: str, bidirectional: bool = True,
             **contract) -> FederationLink:
        """Join two domains with a contract (section 4.2)."""
        self.domain(source)
        self.domain(target)
        forward = FederationLink(source, target, **contract)
        self._links[(source, target)] = forward
        if bidirectional:
            self._links.setdefault((target, source),
                                   FederationLink(target, source,
                                                  **contract))
        return forward

    def link_between(self, source: str, target: str) -> FederationLink:
        link = self._links.get((source, target))
        if link is None:
            raise FederationError(
                f"no federation link {source} -> {target}")
        return link

    def accounting_report(self) -> Dict[str, Dict[str, int]]:
        """Per-link usage by principal — the settlement view both
        organisations audit against their contract."""
        report: Dict[str, Dict[str, int]] = {}
        for (source, target), link in sorted(self._links.items()):
            usage = link.usage_by_principal()
            if usage:
                report[f"{source}->{target}"] = usage
        return report

    def route(self, source: str, target: str) -> List[str]:
        """Shortest link path between two domains (BFS over the graph)."""
        if source == target:
            return [source]
        frontier = [[source]]
        seen = {source}
        while frontier:
            path = frontier.pop(0)
            for (a, b) in self._links:
                if a != path[-1] or b in seen:
                    continue
                if b == target:
                    return path + [b]
                seen.add(b)
                frontier.append(path + [b])
        raise FederationError(
            f"no federation route from {source} to {target}")
