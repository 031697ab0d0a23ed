"""Tests for node management and transparency monitoring."""

import gc

import pytest

from repro import EnvironmentConstraints, FailureSpec, signature_of
from repro.mgmt.monitor import TransparencyMonitor
from repro.mgmt.nodemanager import ManagementService, NodeManager, ServerSpec
from repro.errors import InterfaceClosedError, NoOfferError
from tests.conftest import Account, Counter


def manager_with_specs(world, node="server-node"):
    nucleus = world.nucleus(node)
    manager = NodeManager(nucleus)
    manager.declare(ServerSpec(
        name="counter",
        capsule_name="services",
        factory=Counter,
        advertise={"kind": "counter"},
        service_type="counting"))
    manager.declare(ServerSpec(
        name="account",
        capsule_name="services",
        factory=lambda: Account(100),
        advertise={"kind": "account"}))
    return manager


class TestNodeManager:
    def test_boot_creates_and_advertises(self, single_domain):
        world, domain, servers, clients = single_domain
        manager = manager_with_specs(world)
        started = manager.boot()
        assert len(started) == 2
        assert manager.status() == {"counter": True, "account": True}
        reply = domain.trader.import_one("counting")
        proxy = world.binder_for(clients).bind(reply.ref)
        assert proxy.increment() == 1

    def test_offers_carry_node_property(self, single_domain):
        world, domain, servers, clients = single_domain
        manager_with_specs(world).boot()
        reply = domain.trader.import_one(
            signature_of(Counter), query="node == 'server-node'")
        assert reply.properties["node"] == "server-node"

    def test_stop_closes_and_withdraws(self, single_domain):
        world, domain, servers, clients = single_domain
        manager = manager_with_specs(world)
        manager.boot()
        ref = manager.servers["counter"].ref
        proxy = world.binder_for(clients).bind(ref)
        manager.stop("counter")
        with pytest.raises(InterfaceClosedError):
            proxy.increment()
        with pytest.raises(NoOfferError):
            domain.trader.import_one("counting")
        assert manager.status()["counter"] is False

    def test_restart_after_stop(self, single_domain):
        world, domain, servers, clients = single_domain
        manager = manager_with_specs(world)
        manager.boot()
        manager.stop("counter")
        manager.start("counter")
        reply = domain.trader.import_one("counting")
        proxy = world.binder_for(clients).bind(reply.ref)
        assert proxy.increment() == 1  # a fresh instance

    def test_boot_after_node_restart_recreates_servers(
            self, single_domain):
        world, domain, servers, clients = single_domain
        manager = manager_with_specs(world)
        manager.boot()
        world.crash_node("server-node")
        for server in manager.servers.values():
            server.running = False  # the crash took them down
        world.restart_node("server-node")
        manager.boot()
        assert manager.boots == 2
        assert manager.status()["counter"] is True

    def test_duplicate_spec_rejected(self, single_domain):
        world, _, _, _ = single_domain
        manager = manager_with_specs(world)
        with pytest.raises(ValueError):
            manager.declare(ServerSpec("counter", "services", Counter))

    def test_management_service_remotely_drives_node(self, single_domain):
        """Management is itself ODP: start/stop over the wire."""
        world, domain, servers, clients = single_domain
        manager = manager_with_specs(world)
        manager.boot()
        reply = domain.trader.import_one("management")
        remote = world.binder_for(clients).bind(reply.ref)
        assert remote.list_servers() == ("account", "counter")
        assert remote.is_running("counter")
        remote.stop_server("counter")
        assert not remote.is_running("counter")
        remote.start_server("counter")
        assert remote.is_running("counter")
        assert remote.boot_count() == 1


class TestTransparencyMonitor:
    def test_interface_report_shows_layers_and_counters(
            self, single_domain):
        world, domain, servers, clients = single_domain
        from repro import SecuritySpec
        from repro.security.policy import SecurityPolicy
        domain.policies.register(
            SecurityPolicy("open-door", default_allow=True))
        domain.authority.enrol("alice")
        ref = servers.export(
            Account(0),
            constraints=EnvironmentConstraints(
                concurrency=True,
                failure=FailureSpec(checkpoint_every=2),
                security=SecuritySpec(policy="open-door")))
        proxy = world.binder_for(clients).bind(ref, principal="alice")
        proxy.deposit(10)
        proxy.deposit(10)
        report = TransparencyMonitor(domain).interface_report()
        entry = report[ref.interface_id]
        assert entry["layers"] == ["dispatch-typecheck", "guard",
                                   "concurrency", "failure"]
        assert entry["served"] == 2
        assert entry["guard"]["allowed"] == 2
        assert entry["concurrency"]["autocommit"] == 2
        assert entry["failure"]["checkpoints"] >= 2

    def test_domain_report_aggregates_services(self, trio_domain):
        world, domain, (c1, c2, c3), clients = trio_domain
        ref = c1.export(Counter())
        proxy = world.binder_for(clients).bind(ref)
        proxy.increment()
        domain.migrator.migrate(c1, ref.interface_id, c2)
        proxy.increment()
        with domain.tx_manager.begin():
            pass
        report = TransparencyMonitor(domain).domain_report()
        assert report["relocation"]["registrations"] >= 1
        assert report["relocation"]["updates"] >= 1
        assert report["transactions"]["committed"] == 1
        assert report["migration"]["migrations"] == 1

    def test_domain_report_has_an_overload_section(self, trio_domain):
        from repro import QoS
        from repro.overload import BrownoutController
        from repro.perf.admission import AdmissionController

        world, domain, (c1, c2, c3), clients = trio_domain
        ref = c1.export(Counter())
        proxy = world.binder_for(clients).bind(ref)
        # Idle platform: the section is present with all-zero counters.
        report = TransparencyMonitor(domain).domain_report()["overload"]
        assert report["deadline_gate"]["expired_post_queue"] == 0
        assert report["retry_budgets"]["first_attempts"] == 0
        assert report["expired_reply_evictions"] == 0
        # Exercise the stack: class-aware admission under brownout and
        # a propagated deadline dying in the admission queue.
        brownout = BrownoutController(world.clock)
        brownout.level = 2
        world.nucleus("n1").admission = AdmissionController(
            world.clock, rate_per_s=10.0, burst=1, max_queue=8,
            brownout=brownout, classes=True)
        world.nucleus("client-node").deadline_propagation = True
        from repro.errors import InvocationExpiredError, ServerBusyError
        with pytest.raises(ServerBusyError):
            proxy.increment(_qos=QoS(priority=0, retries=0))
        proxy.increment(_qos=QoS(priority=3))
        with pytest.raises(InvocationExpiredError):
            proxy.increment(_qos=QoS(priority=3, deadline_ms=5.0,
                                     retries=0))
        report = TransparencyMonitor(domain).domain_report()["overload"]
        assert report["classes"]["brownout_shed"] == 1
        assert report["classes"]["class_shed"][0] == 1
        assert report["classes"]["class_admitted"][3] == 2
        assert report["brownout"]["level"] == 2
        assert report["deadline_gate"]["expired_post_queue"] == 1
        assert report["retry_budgets"]["first_attempts"] >= 3

    def test_network_report_scoped_to_domain(self, two_domains):
        world, alpha, beta = two_domains
        servers = world.capsule("a1", "srv")
        clients = world.capsule("b1", "cli")
        proxy = world.binder_for(clients).bind(servers.export(Counter()))
        proxy.increment()
        report = TransparencyMonitor(alpha).network_report()
        assert "a1" in report["per_node"]
        assert "b1" not in report["per_node"]
        assert report["messages"] > 0


def _busy_domain():
    """A domain whose bindings moved, were shed, batched and chased a
    shard; returns the world, the domain and every binding it made."""
    from repro import QoS, World
    from repro.check.workload import ShardStore
    from repro.errors import ServerBusyError
    from repro.perf.admission import AdmissionController
    from repro.perf.batching import BatchClient

    world = World(seed=7)
    for name in ("n1", "n2", "n3", "cli"):
        world.node("org", name)
    domain = world.domain("org")
    srv = {name: world.capsule(name, "srv") for name in ("n1", "n2", "n3")}
    app = world.capsule("cli", "app")
    binder = world.binder_for(app)
    # A move: the next call repairs its binding from the forwarding hint.
    ref = srv["n1"].export(Counter())
    moved = binder.bind(ref)
    moved.increment()
    domain.migrator.migrate(srv["n1"], ref.interface_id, srv["n2"])
    moved.increment()
    # A crash: the next call finds the node gone and the object
    # recovered elsewhere, and rebinds by a lookup.
    ref = srv["n1"].export(Counter(), constraints=EnvironmentConstraints(
        failure=FailureSpec(checkpoint_every=1)))
    recovered = binder.bind(ref)
    recovered.increment()
    world.crash_node("n1")
    domain.recovery.recover(ref.interface_id, srv["n3"])
    recovered.increment()
    world.restart_node("n1")
    # Admission sheds the second of two calls; the transport retries.
    world.nucleus("n3").admission = AdmissionController(
        world.clock, rate_per_s=10.0, burst=1, max_queue=0)
    shed = binder.bind(srv["n3"].export(Counter()), qos=QoS(retries=2))
    shed.increment()
    with pytest.raises(ServerBusyError):
        shed.increment()
    # Three calls coalesced into one batch.
    batcher = BatchClient(app)
    futures = [batcher.call(srv["n2"].export(Counter()), "increment")
               for _ in range(3)]
    batcher.flush()
    world.settle()
    # A router still on the pre-crash view chases the recovered shard.
    space = domain.shards.create(
        "grid", ShardStore, [world.capsule(n, "shards") for n in srv],
        shards=8)
    fresh = space.bind(app)
    victim = space.owners[0]
    key = next(f"z{i}" for i in range(10_000)
               if space.owner_of(f"z{i}") == victim)
    fresh.incr(key)
    stale = space.bind(world.capsule("cli", "app2"))
    world.crash_node(victim)
    space.rebalancer.node_left(victim, dead=True, down_since=world.now)
    world.restart_node(victim)
    stale.incr(key)
    return world, domain, [moved, recovered, shed, batcher, futures, fresh,
                           stale]


class TestCountersOutliveTheirBindings:
    """What the monitor sums is counted where it reads it: on each
    node's records, the domain's relocator and the shard space.  So a
    report does not change when the bindings that did the work are
    dropped and collected."""

    #: The sections as the report gave them while every binding stayed
    #: alive for good on a list of its nucleus or space; the one lookup
    #: is the repair that rebound the binding whose node died.
    PINNED = {
        "relocation": {"known": 14, "registrations": 14, "updates": 5,
                       "lookups": 1, "misses": 0, "repairs": 2,
                       "stale_hints": 1, "chases": 1},
        "perf": {"admission": {"controllers": 1, "admitted": 1,
                               "queued": 0, "shed": 3, "max_depth": 0,
                               "total_wait_ms": 0.0},
                 "batching": {"batchers": 1, "calls": 3,
                              "batches_sent": 1, "invocations_batched": 3,
                              "retransmits": 0, "busy_failures": 0},
                 "busy_retries": 3},
        "shard": {"chases": 1, "refreshes": 1},
    }

    @staticmethod
    def sections(domain):
        report = TransparencyMonitor(domain).domain_report()
        grid = report["shard"]["grid"]
        return {"relocation": report["relocation"], "perf": report["perf"],
                "shard": {"chases": grid["chases"],
                          "refreshes": grid["refreshes"]}}

    def test_domain_report_is_pinned(self):
        world, domain, bindings = _busy_domain()
        assert self.sections(domain) == self.PINNED

    def test_totals_stay_once_the_bindings_are_collected(self):
        world, domain, bindings = _busy_domain()
        del bindings
        gc.collect()
        assert self.sections(domain) == self.PINNED
