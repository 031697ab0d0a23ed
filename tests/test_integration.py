"""End-to-end integration scenarios combining many transparencies."""

import pytest

from repro import (
    EnvironmentConstraints,
    FailureSpec,
    OdpObject,
    ReplicationSpec,
    SecuritySpec,
    Signal,
    operation,
    signature_of,
)
from repro.security.policy import SecurityPolicy
from repro.tx.runner import TxRunner
from tests.conftest import Account, Counter, KvStore


class TestBankScenario:
    """A bank: secured, transactional, checkpointed accounts; a trader
    directory; migration for load balancing; recovery after a crash."""

    def build(self, world):
        for node in ("branch-1", "branch-2", "hq", "customer"):
            world.node("bank", node)
        domain = world.domain("bank")
        domain.policies.register(SecurityPolicy(
            "accounts",
            {"deposit": {"teller"}, "withdraw": {"teller"},
             "balance_of": {"*"}}))
        domain.authority.enrol("teller")
        domain.authority.enrol("auditor")
        constraints = EnvironmentConstraints(
            concurrency=True,
            failure=FailureSpec(checkpoint_every=5),
            security=SecuritySpec(policy="accounts"))
        b1 = world.capsule("branch-1", "accounts")
        b2 = world.capsule("branch-2", "accounts")
        clients = world.capsule("customer", "apps")
        refs = {}
        for name, branch in (("acc-a", b1), ("acc-b", b1),
                             ("acc-c", b2)):
            ref = branch.export(Account(100), constraints=constraints)
            refs[name] = ref
            domain.trader.export(ref.signature, ref,
                                 properties={"account": name},
                                 service_type="account")
        return domain, b1, b2, clients, refs

    def test_full_lifecycle(self, world):
        domain, b1, b2, clients, refs = self.build(world)
        binder = world.binder_for(clients)

        # Discovery through trading.
        reply = domain.trader.import_one("account",
                                         query="account == 'acc-a'")
        teller = binder.bind(reply.ref, principal="teller")
        target = binder.bind(refs["acc-c"], principal="teller")

        # Transactional transfer across branches.
        with domain.tx_manager.begin():
            teller.withdraw(40)
            target.deposit(40)
        assert teller.balance_of() == 60
        assert target.balance_of() == 140

        # Security: auditor may look but not touch.
        auditor = binder.bind(refs["acc-a"], principal="auditor")
        assert auditor.balance_of() == 60
        from repro.errors import AccessDeniedError
        with pytest.raises(AccessDeniedError):
            auditor.withdraw(1)

        # Load balancing: migrate acc-a to branch-2; client unaware.
        domain.migrator.migrate(b1, refs["acc-a"].interface_id, b2)
        assert teller.deposit(5) == 65

        # Crash branch-2; recover both its accounts at branch-1.
        world.crash_node("branch-2")
        recovered = domain.recovery.recover_all_from_node(
            "branch-2", b1)
        assert len(recovered) == 2
        assert teller.balance_of() == 65
        assert target.balance_of() == 140

    def test_concurrent_customers_conserve_money(self, world):
        domain, b1, b2, clients, refs = self.build(world)
        binder = world.binder_for(clients)
        proxies = [binder.bind(ref, principal="teller")
                   for ref in refs.values()]

        def transfer(source, target, amount):
            def script(tx):
                def step1():
                    try:
                        source.withdraw(amount)
                        return True
                    except Signal:
                        return False
                state = {}
                yield lambda: state.update(ok=step1())
                yield lambda: target.deposit(amount) if state["ok"] \
                    else None
            return script

        runner = TxRunner(domain.tx_manager, world.scheduler)
        records = runner.run([
            transfer(proxies[0], proxies[1], 30),
            transfer(proxies[1], proxies[2], 50),
            transfer(proxies[2], proxies[0], 70),
            transfer(proxies[0], proxies[2], 10),
        ])
        assert all(r.committed for r in records)
        assert sum(p.balance_of() for p in proxies) == 300


class TestReplicatedDirectoryScenario:
    """A replicated naming directory that survives crashes while clients
    keep resolving, combined with federated access from another org."""

    def test_directory_survives_and_federates(self, world):
        for node in ("d1", "d2", "d3"):
            world.node("registry", node)
        world.node("consumer", "app1", "tagged")
        world.link_domains("registry", "consumer")
        registry = world.domain("registry")
        capsules = [world.capsule(n, "dir") for n in ("d1", "d2", "d3")]
        group, gref = registry.groups.create(
            KvStore, capsules,
            ReplicationSpec(replicas=3, policy="active"))

        local_clients = world.capsule("d2", "apps")
        local = world.binder_for(local_clients).bind(gref)
        for i in range(5):
            local.put(f"svc-{i}", f"node-{i}")

        world.crash_node(group.view.sequencer.node)  # d1, a gateway too
        assert local.get("svc-3") == "node-3"
        local.put("svc-5", "node-5")

        # Foreign org resolves through its gateway (format translation).
        foreign_clients = world.capsule("app1", "apps")
        foreign = world.binder_for(foreign_clients).bind(gref)
        assert foreign.get("svc-5") == "node-5"


class TestSelfDescribingSystem:
    """Traders + type managers make the system self-describing (section 6):
    a client that knows nothing can discover and use everything."""

    def test_discovery_from_scratch(self, world):
        world.node("org", "n1")
        world.node("org", "n2")
        domain = world.domain("org")
        servers = world.capsule("n1", "srv")
        ref = servers.export(Account(10))
        domain.trader.export(ref.signature, ref, service_type="account",
                             properties={"currency": "EUR"})

        # The client builds its requirement from the type manager's
        # self-description, not from compiled-in knowledge.
        assert "account" in domain.trader.types.known_types()
        description = domain.trader.types.get("account").describe()
        assert "deposit" in description
        requirement = domain.trader.types.get("account")
        reply = domain.trader.import_one(requirement,
                                         query="currency == 'EUR'")
        clients = world.capsule("n2", "apps")
        proxy = world.binder_for(clients).bind(reply.ref,
                                               required=requirement)
        assert proxy.deposit(1) == 11


class TestHeterogeneousDeployment:
    def test_mixed_formats_within_a_domain(self, world):
        """Nodes with different native formats interwork directly: the
        client marshals into each server's format (access transparency)."""
        world.node("org", "intel-box", "packed")
        world.node("org", "legacy-box", "tagged")
        packed_srv = world.capsule("intel-box", "srv")
        tagged_srv = world.capsule("legacy-box", "srv")
        clients = world.capsule("intel-box", "apps")
        binder = world.binder_for(clients)
        a = binder.bind(packed_srv.export(Counter()))
        b = binder.bind(tagged_srv.export(Counter()))
        assert a.increment() == 1
        assert b.increment() == 1

    def test_refs_returned_across_formats_stay_usable(self, world):
        world.node("org", "n1", "packed")
        world.node("org", "n2", "tagged")

        class Factory(OdpObject):
            def __init__(self, capsule):
                self._capsule = capsule

            @operation(returns=["any"])
            def make_counter(self):
                return self._capsule.export(Counter())

        factory_capsule = world.capsule("n2", "factory")
        factory_ref = factory_capsule.export(Factory(factory_capsule))
        clients = world.capsule("n1", "apps")
        factory = world.binder_for(clients).bind(factory_ref)
        counter_ref = factory.make_counter()
        counter = world.binder_for(clients).bind(counter_ref)
        assert counter.increment() == 1


class TestDeterminism:
    def test_identical_seeds_produce_identical_worlds(self):
        from repro.runtime import World
        from repro.net.latency import UniformLatency

        def run(seed):
            world = World(seed=seed, latency=UniformLatency(1.0, 5.0),
                          drop_probability=0.05)
            world.node("org", "s")
            world.node("org", "c")
            servers = world.capsule("s", "srv")
            clients = world.capsule("c", "cli")
            from repro import QoS
            proxy = world.binder_for(clients).bind(
                servers.export(Counter()),
                qos=QoS(retries=20, retry_delay_ms=0.5))
            for _ in range(30):
                proxy.increment()
            return (world.now, world.network.total_messages,
                    world.faults.drops)

        assert run(1234) == run(1234)
        assert run(1234) != run(4321)
