"""The world builder: one-stop construction of an ODP system.

A :class:`World` wires together the simulation substrate (clock, scheduler,
network, faults), the federation of domains, and convenience accessors, so
examples and tests read like deployment descriptions::

    world = World(seed=7)
    org = world.domain("org")
    world.node("org", "n1")
    servers = world.capsule("n1", "servers")
    ref = servers.export(BankAccount(100))
    proxy = world.binder_for(world.capsule("n1", "clients")).bind(ref)
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.engine.binder import Binder
from repro.engine.capsule import Capsule
from repro.engine.nucleus import Nucleus
from repro.federation.domain import Domain, Federation
from repro.net.fault import FaultPlan
from repro.net.latency import LatencyModel
from repro.net.network import Network
from repro.sim.activity import ActivityRuntime
from repro.sim.rand import DeterministicRandom
from repro.sim.scheduler import Scheduler


class World:
    """A complete simulated ODP deployment."""

    def __init__(self, seed: int = 0,
                 latency: Optional[LatencyModel] = None,
                 drop_probability: float = 0.0) -> None:
        self.seed = seed
        self.scheduler = Scheduler()
        self.rng = DeterministicRandom(seed)
        self._fork_labels = {"network"}
        self.faults = FaultPlan(drop_probability)
        self.network = Network(
            self.scheduler,
            latency=latency if latency is not None else LatencyModel(),
            faults=self.faults,
            rng=self.rng.fork("network"))
        self.federation = Federation(self.scheduler, self.network)
        self.activities = ActivityRuntime(self.scheduler)
        self._capsules: Dict[str, Capsule] = {}
        self._streams = None

    @property
    def streams(self):
        """The stream manager (created on first use)."""
        if self._streams is None:
            from repro.streams.binding import StreamManager
            self._streams = StreamManager(self.network, self.scheduler)
        return self._streams

    # -- randomness ---------------------------------------------------------

    def fork_rng(self, label: str) -> DeterministicRandom:
        """Fork an independent random stream from the world seed.

        Every consumer of randomness layered on top of a world (workload
        generators, chaos explorers) must take its own labelled fork so
        its draws cannot perturb the platform's streams.  Duplicate
        labels are rejected: two call sites silently sharing one label
        would receive *identical* streams — correlated randomness that
        masquerades as independence.
        """
        if label in self._fork_labels:
            raise ValueError(
                f"rng stream {label!r} already forked from this world; "
                f"independent consumers need distinct labels")
        self._fork_labels.add(label)
        return self.rng.fork(label)

    # -- time ---------------------------------------------------------------

    @property
    def clock(self):
        return self.scheduler.clock

    @property
    def now(self) -> float:
        return self.scheduler.now

    def settle(self, max_events: int = 1_000_000) -> int:
        """Drain all pending asynchronous activity (announcements,
        heartbeats, stream frames...)."""
        return self.scheduler.run_until_idle(max_events=max_events)

    # -- topology ---------------------------------------------------------------

    def domain(self, name: str) -> Domain:
        if name in self.federation.domains:
            return self.federation.domains[name]
        return self.federation.create_domain(name)

    def node(self, domain_name: str, address: str,
             native_format: str = "packed") -> Nucleus:
        return self.domain(domain_name).add_node(address, native_format)

    def nucleus(self, address: str) -> Nucleus:
        domain_name = self.federation.domain_of_node(address)
        if domain_name is None:
            raise KeyError(f"node {address!r} belongs to no domain")
        return self.federation.domain(domain_name).nuclei[address]

    def capsule(self, node_address: str, name: str) -> Capsule:
        """Create (or fetch) a capsule on a node."""
        key = f"{node_address}/{name}"
        if key in self._capsules:
            return self._capsules[key]
        nucleus = self.nucleus(node_address)
        if name in nucleus.capsules:
            capsule = nucleus.capsules[name]
        else:
            capsule = nucleus.create_capsule(name)
        self._capsules[key] = capsule
        return capsule

    def binder_for(self, capsule: Capsule) -> Binder:
        return Binder(capsule.nucleus, capsule)

    def link_domains(self, a: str, b: str, **contract):
        """Federate two domains (bidirectional by default)."""
        return self.federation.link(a, b, **contract)

    # -- failure scripting ----------------------------------------------------------

    def apply_chaos(self, schedule) -> None:
        """Drive the fault plan from a declarative chaos schedule.

        Window transitions fire as the virtual clock passes them — a
        :class:`~repro.net.fault.FaultSchedule` declares the whole
        failure scenario as data instead of imperative toggles.
        """
        self.faults.attach_schedule(schedule, self.scheduler.clock)

    def crash_node(self, address: str) -> None:
        self.faults.crash_node(address)

    def restart_node(self, address: str) -> None:
        self.faults.restart_node(address)

    def partition(self, *groups) -> None:
        self.faults.partition(*groups)

    # -- reporting --------------------------------------------------------------

    def traffic(self) -> Dict[str, int]:
        return {
            "messages": self.network.total_messages,
            "bytes": self.network.total_bytes,
            "drops": self.faults.drops,
        }
