"""Tests for distributed garbage collection: leases, sweeps, archival."""

import pytest

from repro import EnvironmentConstraints
from repro.errors import InterfaceClosedError
from repro.gc.leases import LeaseTable
from tests.conftest import Account, Counter

RESOURCE = EnvironmentConstraints(resource=True)


def _table(ttl_ms):
    table = LeaseTable()
    table.default_ttl_ms = ttl_ms
    return table


class TestLeaseTable:
    def test_grant_and_expiry(self):
        table = _table(100.0)
        table.grant("i", "holder", now=0.0)
        assert table.has_live_lease("i", now=50.0)
        assert not table.has_live_lease("i", now=150.0)

    def test_renewal_extends(self):
        table = _table(100.0)
        table.grant("i", "holder", now=0.0)
        table.renew("i", "holder", now=80.0)
        assert table.has_live_lease("i", now=150.0)

    def test_renew_unknown_is_noop(self):
        table = LeaseTable()
        table.renew("i", "stranger", now=0.0)
        assert not table.has_live_lease("i", now=0.0)

    def test_prune_drops_expired(self):
        table = _table(10.0)
        table.grant("i", "h1", now=0.0)
        table.grant("j", "h2", now=0.0)
        table.renew("j", "h2", now=5.0)
        assert table.prune(now=12.0) == 1
        assert table.live_holders("i", now=0.0) == set()
        assert table.live_holders("j", now=0.0) == {"h2"}


class TestCollector:
    def test_binding_grants_lease_and_use_renews(self, single_domain):
        world, domain, servers, clients = single_domain
        ref = servers.export(Counter())
        proxy = world.binder_for(clients).bind(ref)
        assert domain.collector.leases.grants == 1
        proxy.increment()
        assert domain.collector.leases.renewals >= 1

    def test_passive_unreferenced_object_collected(self, single_domain):
        world, domain, servers, clients = single_domain
        ref = servers.export(Account(5), constraints=RESOURCE)
        world.binder_for(clients).bind(ref)
        domain.passivation.passivate(servers, ref.interface_id)
        world.clock.advance(20_000.0)  # leases expire
        report = domain.collector.sweep()
        assert ref.interface_id in report.collected
        assert ref.interface_id not in servers.interfaces
        assert not domain.repository.contains(f"passive:{ref.interface_id}")
        assert domain.relocator.try_lookup(ref.interface_id) is None

    def test_active_objects_never_collected(self, single_domain):
        """'Active ones cannot be garbage by definition' (section 7.3)."""
        world, domain, servers, clients = single_domain
        ref = servers.export(Counter())
        world.clock.advance(100_000.0)  # all leases long dead
        report = domain.collector.sweep()
        assert report.collected == []
        assert ref.interface_id in servers.interfaces

    def test_live_lease_protects_passive_object(self, single_domain):
        world, domain, servers, clients = single_domain
        ref = servers.export(Account(5), constraints=RESOURCE)
        proxy = world.binder_for(clients).bind(ref)
        domain.passivation.passivate(servers, ref.interface_id)
        world.clock.advance(5_000.0)  # within the 10s default TTL
        report = domain.collector.sweep()
        assert report.collected == []
        assert proxy.balance_of() == 5  # still reachable

    def test_closed_interfaces_reclaimed(self, single_domain):
        world, domain, servers, clients = single_domain
        ref = servers.export(Counter())
        proxy = world.binder_for(clients).bind(ref)
        servers.close(ref.interface_id)
        with pytest.raises(InterfaceClosedError):
            proxy.increment()
        report = domain.collector.sweep()
        assert ref.interface_id in report.closed_reclaimed
        assert ref.interface_id not in servers.interfaces

    def test_long_idle_passive_objects_demoted_to_archive(
            self, single_domain):
        world, domain, servers, clients = single_domain
        collector = domain.collector
        collector.archive_after_ms = 1_000.0
        ref = servers.export(Account(5), constraints=RESOURCE)
        proxy = world.binder_for(clients).bind(ref)
        domain.passivation.passivate(servers, ref.interface_id)
        proxy._context_factory()  # renew lease so it is not collected
        world.clock.advance(2_000.0)
        collector.leases.renew(ref.interface_id,
                               "client-node/clients", world.now)
        report = collector.sweep()
        assert ref.interface_id in report.demoted
        record = domain.repository.fetch(f"passive:{ref.interface_id}")
        assert record.kind == "archived"
        # Archived objects come back on demand.
        assert proxy.balance_of() == 5

    def test_scheduled_sweeping(self, single_domain):
        world, domain, servers, clients = single_domain
        ref = servers.export(Account(5), constraints=RESOURCE)
        domain.passivation.passivate(servers, ref.interface_id)
        domain.collector.start_sweeping(interval_ms=1_000.0)
        world.scheduler.run_until(world.now + 15_000.0)
        domain.collector.stop_sweeping()
        assert domain.collector.sweeps >= 10
        assert ref.interface_id not in servers.interfaces

    def test_sweep_report_counts_examined(self, single_domain):
        world, domain, servers, clients = single_domain
        for _ in range(4):
            servers.export(Counter())
        report = domain.collector.sweep()
        # 4 exports + the gateway capsule is empty.
        assert report.examined == 4
