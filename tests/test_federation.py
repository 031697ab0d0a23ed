"""Tests for federation: domains, links, gateways, naming, heterogeneity."""

import pytest

from repro import EnvironmentConstraints, SecuritySpec
from repro.errors import AccessDeniedError, FederationError
from repro.federation.naming import annotate_refs
from tests.conftest import Account, Counter, KvStore


class TestFederationGraph:
    def test_route_direct(self, two_domains):
        world, alpha, beta = two_domains
        assert world.federation.route("alpha", "beta") == ["alpha", "beta"]

    def test_route_multi_hop(self, world):
        for name, node in (("A", "a1"), ("B", "b1"), ("C", "c1")):
            world.node(name, node)
        world.link_domains("A", "B")
        world.link_domains("B", "C")
        assert world.federation.route("A", "C") == ["A", "B", "C"]

    def test_no_route_raises(self, world):
        world.node("A", "a1")
        world.node("C", "c1")
        with pytest.raises(FederationError):
            world.federation.route("A", "C")

    def test_unidirectional_link(self, world):
        world.node("A", "a1")
        world.node("B", "b1")
        world.federation.link("A", "B", bidirectional=False)
        assert world.federation.route("A", "B") == ["A", "B"]
        with pytest.raises(FederationError):
            world.federation.route("B", "A")

    def test_domain_of_node(self, two_domains):
        world, alpha, beta = two_domains
        assert world.federation.domain_of_node("a1") == "alpha"
        assert world.federation.domain_of_node("b1") == "beta"


class TestCrossDomainInvocation:
    def test_basic_crossing_with_format_translation(self, two_domains):
        """alpha speaks packed, beta speaks tagged: interception bridges."""
        world, alpha, beta = two_domains
        servers = world.capsule("a1", "srv")
        clients = world.capsule("b1", "cli")
        ref = servers.export(Counter())
        proxy = world.binder_for(clients).bind(ref)
        assert proxy.increment() == 1
        assert proxy.increment() == 2

    def test_gateway_really_intercepts(self, world):
        """Crossing costs more hops than staying inside the domain."""
        world.node("A", "a1")
        world.node("A", "a2")
        world.node("B", "b1")
        world.link_domains("A", "B")
        servers = world.capsule("a2", "srv")
        local_client = world.capsule("a1", "cli")
        foreign_client = world.capsule("b1", "cli")
        ref = servers.export(Counter())

        local = world.binder_for(local_client).bind(ref)
        before = world.network.total_messages
        local.increment()
        local_cost = world.network.total_messages - before

        foreign = world.binder_for(foreign_client).bind(ref)
        before = world.network.total_messages
        foreign.increment()
        foreign_cost = world.network.total_messages - before
        assert foreign_cost > local_cost

    def test_multi_hop_crossing(self, world):
        for name, node in (("A", "a1"), ("B", "b1"), ("C", "c1")):
            world.node(name, node)
        world.link_domains("A", "B")
        world.link_domains("B", "C")
        servers = world.capsule("c1", "srv")
        clients = world.capsule("a1", "cli")
        proxy = world.binder_for(clients).bind(servers.export(Counter()))
        assert proxy.increment() == 1
        # Both links were crossed, and each booked the call once, at the
        # gateway it arrived at.
        assert world.federation.link_between("A", "B").ledger == \
            {("<anonymous>", "increment"): 1}
        assert world.federation.link_between("B", "C").ledger == \
            {("<anonymous>", "increment"): 1}

    def test_signal_crosses_boundary(self, two_domains):
        world, alpha, beta = two_domains
        servers = world.capsule("a1", "srv")
        clients = world.capsule("b1", "cli")
        proxy = world.binder_for(clients).bind(servers.export(Account(5)))
        from repro import Signal
        with pytest.raises(Signal) as exc:
            proxy.withdraw(100)
        assert exc.value.name == "overdrawn"

    def test_denied_operation_blocked_at_egress(self, world):
        world.node("A", "a1")
        world.node("B", "b1")
        world.federation.link("B", "A", bidirectional=True,
                              denied_operations={"increment"})
        servers = world.capsule("a1", "srv")
        clients = world.capsule("b1", "cli")
        proxy = world.binder_for(clients).bind(servers.export(Counter()))
        with pytest.raises(FederationError, match="denies operation"):
            proxy.increment()
        assert proxy.read() == 0  # other ops pass

    def test_principal_allowlist(self, world):
        world.node("A", "a1")
        world.node("B", "b1")
        world.federation.link("B", "A",
                              allowed_principals={"ambassador"})
        world.domain("B").authority.enrol("ambassador")
        world.domain("B").authority.enrol("nobody")
        servers = world.capsule("a1", "srv")
        clients = world.capsule("b1", "cli")
        ref = servers.export(Counter())
        ok = world.binder_for(clients).bind(ref, principal="ambassador")
        assert ok.increment() == 1
        blocked = world.binder_for(clients).bind(ref, principal="nobody")
        with pytest.raises(FederationError, match="does not admit"):
            blocked.increment()

    def test_principal_mapping_with_guarded_server(self, world):
        """Gateway maps beta's 'bob' to alpha's 'robert' and re-issues
        local credentials, so alpha's guard admits him."""
        world.node("A", "a1")
        world.node("B", "b1")
        world.federation.link("B", "A",
                              principal_map={"bob": "robert"})
        alpha, beta = world.domain("A"), world.domain("B")
        alpha.authority.enrol("robert")
        beta.authority.enrol("bob")
        from repro.security.policy import SecurityPolicy
        alpha.policies.register(
            SecurityPolicy("vault", {"increment": {"robert"}}))
        servers = world.capsule("a1", "srv")
        clients = world.capsule("b1", "cli")
        ref = servers.export(
            Counter(),
            constraints=EnvironmentConstraints(
                security=SecuritySpec(policy="vault")))
        proxy = world.binder_for(clients).bind(ref, principal="bob")
        assert proxy.increment() == 1
        # And an unmapped principal is denied by alpha's guard.
        beta.authority.enrol("eve")
        eve = world.binder_for(clients).bind(ref, principal="eve")
        with pytest.raises(AccessDeniedError):
            eve.increment()

    def test_gateway_keeps_one_delivery_channel_per_interface(
            self, two_domains):
        """Every channel registers its transport and relocation layer
        with its nucleus for good: the gateway must not build one per
        arriving invocation."""
        world, alpha, beta = two_domains
        servers = world.capsule("a1", "srv")
        clients = world.capsule("b1", "cli")
        proxy = world.binder_for(clients).bind(servers.export(Counter()))
        gateway = alpha.nuclei["a1"]

        def registered():
            return (len(gateway.transports),
                    len(gateway.relocation_layers))

        assert proxy.increment() == 1
        after_first = registered()
        for _ in range(199):
            proxy.increment()
        assert proxy.read() == 200
        assert registered() == after_first


class TestContextRelativeNaming:
    def test_refs_in_replies_annotated_with_defining_context(self, world):
        world.node("A", "a1")
        world.node("B", "b1")
        world.link_domains("A", "B")

        from repro import OdpObject, operation

        class Directory(OdpObject):
            def __init__(self, target):
                self._target = target

            @operation(returns=["any"])
            def lookup(self):
                return self._target

        servers = world.capsule("a1", "srv")
        clients = world.capsule("b1", "cli")
        target_ref = servers.export(Counter())
        directory_ref = servers.export(Directory(target_ref))
        directory = world.binder_for(clients).bind(directory_ref)
        found = directory.lookup()
        assert found.context == ("A",)
        assert found.home_domain == "A"
        # The annotated ref is usable from beta.
        counter = world.binder_for(clients).bind(found)
        assert counter.increment() == 1

    def test_annotate_refs_only_touches_local_definitions(self, two_domains):
        world, alpha, beta = two_domains
        servers = world.capsule("a1", "srv")
        ref_local = servers.export(Counter())
        foreign = ref_local.with_context(("elsewhere",))
        annotated = annotate_refs((ref_local, foreign, 42), "alpha",
                                  alpha.defined_here)
        assert annotated[0].context == ("alpha",)
        assert annotated[1].context == ("elsewhere",)
        assert annotated[2] == 42


class TestAccounting:
    def test_links_keep_a_per_principal_ledger(self, world):
        world.node("A", "a1")
        world.node("B", "b1")
        world.link_domains("A", "B")
        world.domain("B").authority.enrol("alice")
        world.domain("B").authority.enrol("bob")
        servers = world.capsule("a1", "srv")
        clients = world.capsule("b1", "cli")
        ref = servers.export(Counter())
        alice = world.binder_for(clients).bind(ref, principal="alice")
        bob = world.binder_for(clients).bind(ref, principal="bob")
        for _ in range(3):
            alice.increment()
        bob.read()
        report = world.federation.accounting_report()
        # Each crossing is booked once, at A's gateway on ingress.
        assert report["B->A"]["alice"] == 3
        assert report["B->A"]["bob"] == 1
        link = world.federation.link_between("B", "A")
        assert link.ledger[("alice", "increment")] == 3
        assert link.ledger[("bob", "read")] == 1

    def test_intra_domain_traffic_is_not_accounted(self, single_domain):
        world, domain, servers, clients = single_domain
        proxy = world.binder_for(clients).bind(servers.export(Counter()))
        proxy.increment()
        assert world.federation.accounting_report() == {}
