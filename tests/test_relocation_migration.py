"""Tests for location transparency, migration and resource transparency."""

import pytest

from repro import EnvironmentConstraints, OdpObject, operation
from repro.errors import (
    MigrationError,
    NodeUnreachableError,
    StaleReferenceError,
)
from repro.relocation.relocator import Relocator
from tests.conftest import Account, Counter, with_paths


class TestRelocator:
    def test_register_and_lookup(self, single_domain):
        world, domain, servers, _ = single_domain
        ref = servers.export(Counter())
        assert domain.relocator.lookup(ref.interface_id) == ref

    def test_unknown_lookup_raises(self):
        relocator = Relocator("d")
        with pytest.raises(StaleReferenceError):
            relocator.lookup("ghost")
        assert relocator.misses == 1

    def test_unreachable_repair_counts_its_lookup(self, trio_domain):
        """A binding whose node died asks the relocator where the object
        went: a lookup, and a miss when it knows nothing; an
        out-of-band probe counts neither."""
        world, domain, (c1, c2, c3), clients = trio_domain
        relocator = domain.relocator
        ref = c1.export(Counter())
        proxy = world.binder_for(clients).bind(ref)
        relocator.try_lookup(ref.interface_id)
        assert (relocator.lookups, relocator.misses) == (0, 0)
        relocator.unregister(ref.interface_id)
        world.crash_node("n1")
        with pytest.raises(NodeUnreachableError):
            proxy.increment()
        assert (relocator.lookups, relocator.misses) == (1, 1)

    def test_update_requires_newer_epoch(self, single_domain):
        world, domain, servers, _ = single_domain
        ref = servers.export(Counter())
        stale = with_paths(ref, ref.paths, epoch=ref.epoch)
        domain.relocator.update(stale)  # same epoch: ignored
        assert domain.relocator.updates == 0
        fresher = with_paths(ref, ref.paths, epoch=ref.epoch + 1)
        domain.relocator.update(fresher)
        assert domain.relocator.updates == 1
        assert domain.relocator.lookup(ref.interface_id).epoch == \
               ref.epoch + 1

    def test_registration_of_changes_only(self, single_domain):
        """Stationary interfaces cost one registration and nothing more."""
        world, domain, servers, clients = single_domain
        ref = servers.export(Counter())
        proxy = world.binder_for(clients).bind(ref)
        before = (domain.relocator.registrations, domain.relocator.updates)
        for _ in range(20):
            proxy.increment()
        assert (domain.relocator.registrations,
                domain.relocator.updates) == before


class TestMigration:
    def test_migrate_preserves_state_and_identity(self, trio_domain):
        world, domain, (c1, c2, c3), clients = trio_domain
        ref = c1.export(Account(77))
        new_ref = domain.migrator.migrate(c1, ref.interface_id, c2)
        assert new_ref.interface_id == ref.interface_id
        assert new_ref.epoch == ref.epoch + 1
        assert new_ref.primary_path().node == "n2"
        assert c2.interfaces[ref.interface_id].implementation.balance == 77

    def test_old_proxy_repairs_via_forward_hint(self, trio_domain):
        world, domain, (c1, c2, c3), clients = trio_domain
        ref = c1.export(Account(10))
        proxy = world.binder_for(clients).bind(ref)
        assert proxy.balance_of() == 10
        domain.migrator.migrate(c1, ref.interface_id, c2)
        # The proxy still works: the stale error carried a forward hint.
        assert proxy.deposit(5) == 15
        layer = proxy._channel.layers[-1]  # relocation layer
        assert layer.hint_repairs >= 1

    def test_repair_via_relocator_when_no_forward(self, trio_domain):
        world, domain, (c1, c2, c3), clients = trio_domain
        ref = c1.export(Account(10))
        proxy = world.binder_for(clients).bind(ref)
        domain.migrator.migrate(c1, ref.interface_id, c2,
                                leave_forward=False)
        assert proxy.balance_of() == 10
        layer = proxy._channel.layers[-1]
        assert layer.lookup_repairs >= 1

    def test_chain_of_migrations(self, trio_domain):
        world, domain, (c1, c2, c3), clients = trio_domain
        ref = c1.export(Counter())
        proxy = world.binder_for(clients).bind(ref)
        proxy.increment()
        domain.migrator.migrate(c1, ref.interface_id, c2)
        proxy.increment()
        domain.migrator.migrate(c2, ref.interface_id, c3)
        assert proxy.increment() == 3

    def test_object_can_refuse_to_move(self, trio_domain):
        world, domain, (c1, c2, c3), clients = trio_domain

        class Stubborn(OdpObject):
            @operation()
            def f(self):
                pass

            def odp_ready_to_move(self):
                return False

        ref = c1.export(Stubborn())
        with pytest.raises(MigrationError, match="refused"):
            domain.migrator.migrate(c1, ref.interface_id, c2)
        assert domain.migrator.refusals == 1

    def test_migrate_to_same_capsule_rejected(self, trio_domain):
        world, domain, (c1, c2, c3), clients = trio_domain
        ref = c1.export(Counter())
        with pytest.raises(MigrationError):
            domain.migrator.migrate(c1, ref.interface_id, c1)

    def test_co_location_moves_next_to_client(self, trio_domain):
        world, domain, (c1, c2, c3), clients = trio_domain
        ref = c1.export(Counter())
        proxy = world.binder_for(clients).bind(ref)
        proxy.increment()
        domain.migrator.migrate(c1, ref.interface_id, clients)
        proxy.increment()  # this invocation pays the rebind
        before = world.network.total_messages
        proxy.increment()  # now co-located: no messages
        assert world.network.total_messages == before

    def test_crashed_node_then_recovered_elsewhere(self, trio_domain):
        """Unreachable node + relocator knowing a newer home = repair."""
        world, domain, (c1, c2, c3), clients = trio_domain
        ref = c1.export(Account(30))
        proxy = world.binder_for(clients).bind(ref)
        proxy.deposit(5)
        # Move it, then kill the old node entirely: hint is unreachable.
        domain.migrator.migrate(c1, ref.interface_id, c2)
        world.crash_node("n1")
        assert proxy.balance_of() == 35

    def test_genuine_failure_still_surfaces(self, trio_domain):
        world, domain, (c1, c2, c3), clients = trio_domain
        ref = c1.export(Account(1))
        proxy = world.binder_for(clients).bind(ref)
        world.crash_node("n1")
        with pytest.raises(NodeUnreachableError):
            proxy.balance_of()


class TestPassivation:
    def test_passivate_then_transparent_reactivate(self, single_domain):
        world, domain, servers, clients = single_domain
        ref = servers.export(
            Account(50),
            constraints=EnvironmentConstraints(resource=True))
        proxy = world.binder_for(clients).bind(ref)
        domain.passivation.passivate(servers, ref.interface_id)
        interface = servers.interfaces[ref.interface_id]
        assert interface.implementation is None
        assert proxy.balance_of() == 50  # reactivated on demand
        assert domain.passivation.reactivations == 1
        assert interface.epoch == ref.epoch + 1

    def test_passive_state_survives_in_repository(self, single_domain):
        world, domain, servers, clients = single_domain
        ref = servers.export(Account(5))
        domain.passivation.passivate(servers, ref.interface_id)
        assert domain.repository.contains(f"passive:{ref.interface_id}")

    def test_reactivation_advises_relocator(self, single_domain):
        world, domain, servers, clients = single_domain
        ref = servers.export(
            Account(5), constraints=EnvironmentConstraints(resource=True))
        proxy = world.binder_for(clients).bind(ref)
        domain.passivation.passivate(servers, ref.interface_id)
        proxy.balance_of()
        assert domain.relocator.lookup(ref.interface_id).epoch > ref.epoch
