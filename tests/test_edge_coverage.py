"""Edge-case coverage across subsystems: multi-homing, repair bounds,
runner exhaustion, trader resource hooks, GC across domains."""

import pytest

from repro import EnvironmentConstraints
from repro.comp.reference import AccessPath, InterfaceRef
from repro.errors import StaleReferenceError
from repro.tx.runner import TxRunner
from repro.types.signature import InterfaceSignature
from tests.conftest import Account, Counter, with_paths


class TestMultiHoming:
    def test_transport_fails_over_to_second_path(self, single_domain):
        """A reference whose first path is dead is reached through its
        second (section 5.4: several access paths per interface)."""
        world, domain, servers, clients = single_domain
        ref = servers.export(Counter())
        good = ref.primary_path()
        multi = with_paths(ref, (
            AccessPath("ghost-node", good.capsule, good.protocol,
                       good.wire_format),
            good))
        proxy = world.binder_for(clients).bind(
            multi, constraints=EnvironmentConstraints(location=False,
                                                      federation=False))
        assert proxy.increment() == 1

    def test_all_paths_dead_surfaces_unreachable(self, single_domain):
        world, domain, servers, clients = single_domain
        ref = servers.export(Counter())
        good = ref.primary_path()
        multi = with_paths(ref, (
            AccessPath("ghost-1", good.capsule),
            AccessPath("ghost-2", good.capsule)))
        proxy = world.binder_for(clients).bind(
            multi, constraints=EnvironmentConstraints(location=False,
                                                      federation=False))
        from repro.errors import NodeUnreachableError
        with pytest.raises(NodeUnreachableError):
            proxy.increment()


class TestRepairBounds:
    def test_repair_gives_up_after_max_hops(self, single_domain):
        """An object that has vanished from the relocator view stops the
        repair loop rather than spinning."""
        world, domain, servers, clients = single_domain
        ref = servers.export(Counter())
        proxy = world.binder_for(clients).bind(ref)
        proxy.increment()
        # Remove the object everywhere but keep a forwarding loop:
        # a stub pointing at itself (pathological).
        servers.withdraw(ref.interface_id, forward=ref)
        domain.relocator.unregister(ref.interface_id)
        domain.relocator.register(ref)  # registry also stale
        with pytest.raises(StaleReferenceError):
            proxy.increment()


class TestRunnerExhaustion:
    def test_script_that_can_never_commit_is_reported(self, single_domain):
        world, domain, servers, clients = single_domain
        ref = servers.export(Account(100),
                             constraints=EnvironmentConstraints(
                                 concurrency=True))
        proxy = world.binder_for(clients).bind(ref)
        blocker = domain.tx_manager.begin()
        domain.tx_manager.push_current(blocker)
        proxy.deposit(1)
        domain.tx_manager.pop_current(blocker)
        # blocker holds the write lock; the script cannot get it.

        def script(tx):
            yield lambda: proxy.deposit(1)

        # Busy-waits are not attempts: the script sleeps and retries
        # while other events run, one of which aborts the blocker.
        world.scheduler.after(
            30.0, lambda: blocker.abort("operator intervention"))
        runner = TxRunner(domain.tx_manager, world.scheduler)
        records = runner.run([script])
        assert records[0].committed
        assert records[0].attempts == 1
        assert records[0].busy_waits >= 10


class TestTraderResourceHookReplacement:
    def test_hook_may_substitute_a_fresher_reference(self, single_domain):
        """Section 6: the resource manager 'can take whatever actions are
        required when the offer is selected' — including handing back a
        newer reference (e.g. after reactivating elsewhere)."""
        world, domain, servers, clients = single_domain
        ref_v1 = servers.export(Counter(), interface_id="svc")
        # Simulate the resource manager moving the service.
        other = world.capsule("server-node", "other")

        def hook(offer):
            if "svc" in servers.interfaces:
                new_ref = domain.migrator.migrate(servers, "svc", other)
                return new_ref
            return None

        from repro import signature_of
        domain.trader.export(ref_v1.signature, ref_v1,
                             resource_hook=hook)
        reply = domain.trader.import_one(signature_of(Counter))
        assert reply.ref.primary_path().capsule == "other"
        proxy = world.binder_for(clients).bind(reply.ref)
        assert proxy.increment() == 1


class TestCrossDomainLeases:
    def test_foreign_binding_grants_lease_in_owning_domain(
            self, two_domains):
        world, alpha, beta = two_domains
        servers = world.capsule("a1", "srv")
        ref = servers.export(Counter())
        clients = world.capsule("b1", "cli")
        world.binder_for(clients).bind(ref)
        # The lease lives with the object's domain, not the client's.
        assert alpha.collector.leases.has_live_lease(
            ref.interface_id, world.now)
        assert not beta.collector.leases.has_live_lease(
            ref.interface_id, world.now)


class TestSignatureRestriction:
    def test_restricted_signature_limits_proxy_surface(self,
                                                       single_domain):
        """A narrowed requirement yields a proxy that only exposes the
        required operations — interface projection."""
        world, domain, servers, clients = single_domain
        ref = servers.export(Account(10))
        narrowed = InterfaceSignature(
            "Account#narrow", [ref.signature.operation("balance_of")])
        proxy = world.binder_for(clients).bind(ref, required=narrowed)
        # Binding checked against the narrow view; the proxy still
        # carries the full signature (the reference's own), so this
        # checks the *requirement* path, not capability restriction.
        assert proxy.balance_of() == 10


class TestEpochMonotonicity:
    def test_epochs_only_grow_through_lifecycle(self, trio_domain):
        world, domain, (c1, c2, c3), clients = trio_domain
        ref = c1.export(Account(1),
                        constraints=EnvironmentConstraints(resource=True))
        epochs = [domain.relocator.lookup(ref.interface_id).epoch]
        domain.migrator.migrate(c1, ref.interface_id, c2)
        epochs.append(domain.relocator.lookup(ref.interface_id).epoch)
        domain.passivation.passivate(c2, ref.interface_id)
        proxy = world.binder_for(clients).bind(ref)
        proxy.balance_of()  # reactivation bumps epoch
        epochs.append(domain.relocator.lookup(ref.interface_id).epoch)
        domain.migrator.migrate(c2, ref.interface_id, c3)
        epochs.append(domain.relocator.lookup(ref.interface_id).epoch)
        assert epochs == sorted(epochs)
        assert len(set(epochs)) == len(epochs)
