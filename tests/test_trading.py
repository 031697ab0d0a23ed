"""Tests for trading: the query language, offers, type safety, federation."""

import pytest

from repro import EnvironmentConstraints, OdpObject, operation, signature_of
from repro.errors import (NoOfferError, PropertyQueryError, TradingError,
                          TypeCheckError)
from repro.trading.query import PropertyQuery
from repro.trading.trader import Trader
from tests.conftest import Account, Counter, KvStore


class TestPropertyQuery:
    def check(self, text, properties):
        return PropertyQuery(text).matches(properties)

    def test_empty_matches_everything(self):
        assert self.check("", {})
        assert self.check("  ", {"x": 1})

    def test_comparisons(self):
        props = {"cost": 5, "region": "eu"}
        assert self.check("cost == 5", props)
        assert self.check("cost < 10", props)
        assert self.check("cost <= 5", props)
        assert self.check("cost > 1", props)
        assert self.check("cost != 6", props)
        assert self.check("region == 'eu'", props)
        assert not self.check("region == 'us'", props)

    def test_boolean_operators(self):
        props = {"cost": 5, "tier": "gold", "deprecated": False}
        assert self.check("cost < 10 and tier == 'gold'", props)
        assert self.check("cost > 10 or tier == 'gold'", props)
        assert self.check("not deprecated", props)
        assert self.check("not (cost > 10)", props)

    def test_precedence_and_parens(self):
        props = {"a": 1, "b": 2, "c": 3}
        # and binds tighter than or
        assert self.check("a == 9 or b == 2 and c == 3", props)
        assert not self.check("(a == 9 or b == 2) and c == 9", props)

    def test_missing_property_is_none(self):
        assert not self.check("cost < 5", {})
        assert self.check("cost == 5 or true", {})
        assert not self.check("ghost == 'x'", {})
        assert self.check("ghost != 'x'", {})  # None != 'x'

    def test_exists(self):
        assert self.check("exists backup", {"backup": "none"})
        assert not self.check("exists backup", {})
        assert self.check("exists backup and backup != 'none'",
                          {"backup": "tape"})

    def test_in_operator(self):
        props = {"zones": ["eu", "us"], "zone": "eu"}
        assert self.check("'eu' in zones", props)
        assert not self.check("'ap' in zones", props)

    def test_numeric_string_comparisons_are_false(self):
        assert not self.check("cost < 'high'", {"cost": 3})

    def test_floats_and_booleans(self):
        assert self.check("ratio >= 0.5", {"ratio": 0.75})
        assert self.check("enabled == true", {"enabled": True})
        assert self.check("enabled != false", {"enabled": True})

    def test_syntax_errors(self):
        for bad in ("cost <", "== 5", "cost << 3", "(a == 1", "a ==== 1",
                    "cost @ 5"):
            with pytest.raises(PropertyQueryError):
                PropertyQuery(bad)


class TestTraderBasics:
    def exported(self, single_domain, properties, impl=None):
        world, domain, servers, clients = single_domain
        ref = servers.export(impl if impl is not None else Counter())
        offer_id = domain.trader.export(ref.signature, ref,
                                        properties=properties)
        return world, domain, clients, ref, offer_id

    def test_export_and_import(self, single_domain):
        world, domain, clients, ref, _ = self.exported(
            single_domain, {"cost": 3})
        reply = domain.trader.import_one(signature_of(Counter))
        assert reply.ref.interface_id == ref.interface_id
        proxy = world.binder_for(clients).bind(reply.ref)
        assert proxy.increment() == 1

    def test_property_filtering(self, single_domain):
        world, domain, servers, clients = single_domain
        cheap = servers.export(Counter())
        dear = servers.export(Counter())
        domain.trader.export(cheap.signature, cheap,
                             properties={"cost": 1})
        domain.trader.export(dear.signature, dear,
                             properties={"cost": 100})
        replies = domain.trader.import_service(signature_of(Counter),
                                               query="cost < 10")
        assert len(replies) == 1
        assert replies[0].ref.interface_id == cheap.interface_id

    def test_type_safety_no_false_matches(self, single_domain):
        """A client is only told of offers providing the operations it
        requires (section 6)."""
        world, domain, servers, clients = single_domain
        ref = servers.export(Counter())
        domain.trader.export(ref.signature, ref)
        with pytest.raises(NoOfferError):
            domain.trader.import_one(signature_of(Account))

    def test_wider_services_match_narrower_requirements(
            self, single_domain):
        world, domain, servers, clients = single_domain

        class SuperCounter(Counter):
            @operation(returns=[int])
            def decrement(self):
                self.value -= 1
                return self.value

        ref = servers.export(SuperCounter())
        domain.trader.export(ref.signature, ref)
        reply = domain.trader.import_one(signature_of(Counter))
        assert reply.ref.interface_id == ref.interface_id

    def test_withdraw(self, single_domain):
        world, domain, clients, ref, offer_id = self.exported(
            single_domain, {})
        domain.trader.withdraw(offer_id)
        with pytest.raises(NoOfferError):
            domain.trader.import_one(signature_of(Counter))
        with pytest.raises(TradingError):
            domain.trader.withdraw(offer_id)

    def test_partitions_separate_administration(self, single_domain):
        world, domain, servers, clients = single_domain
        ref_a = servers.export(Counter())
        ref_b = servers.export(Counter())
        domain.trader.export(ref_a.signature, ref_a, partition="hr")
        domain.trader.export(ref_b.signature, ref_b, partition="lab")
        assert domain.trader.offer_count("hr") == 1
        assert domain.trader.offer_count("lab") == 1
        hr = domain.trader.import_service(signature_of(Counter),
                                          partition="hr")
        assert len(hr) == 1
        assert hr[0].ref.interface_id == ref_a.interface_id

    def test_named_service_types(self, single_domain):
        world, domain, servers, clients = single_domain
        ref = servers.export(Counter())
        domain.trader.export(ref.signature, ref, service_type="counting")
        reply = domain.trader.import_one("counting")
        assert reply.service_type == "counting"
        assert "counting" in domain.trader.types.known_types()

    def test_type_manager_extra_rule(self, single_domain):
        world, domain, servers, clients = single_domain
        ref = servers.export(Counter())
        domain.trader.export(ref.signature, ref)
        # Rule: require interfaces to offer at most 2 operations.
        domain.trader.types.add_rule(
            "small-interfaces",
            lambda provided, required: len(provided.operations) <= 2)
        with pytest.raises(NoOfferError):
            domain.trader.import_one(signature_of(Counter))

    def test_resource_hook_runs_on_selection(self, single_domain):
        """Trading linked to resource management (section 6)."""
        world, domain, servers, clients = single_domain
        ref = servers.export(
            Account(42),
            constraints=EnvironmentConstraints(resource=True))
        activated = []

        def hook(offer):
            activated.append(offer.offer_id)
            return None

        domain.trader.export(ref.signature, ref, resource_hook=hook)
        domain.passivation.passivate(servers, ref.interface_id)
        reply = domain.trader.import_one(signature_of(Account))
        assert activated  # hook ran at selection
        proxy = world.binder_for(clients).bind(reply.ref)
        assert proxy.balance_of() == 42  # passive object usable

    def test_limit(self, single_domain):
        world, domain, servers, clients = single_domain
        for _ in range(5):
            ref = servers.export(Counter())
            domain.trader.export(ref.signature, ref)
        replies = domain.trader.import_service(signature_of(Counter),
                                               limit=2)
        assert len(replies) == 2


class TestFederatedTrading:
    def build_chain(self, world, length=3):
        """Domains A-B-C..., each with a trader holding one counter."""
        traders = []
        refs = []
        for i in range(length):
            name = chr(ord("A") + i)
            world.node(name, f"{name.lower()}1")
            servers = world.capsule(f"{name.lower()}1", "srv")
            ref = servers.export(Counter())
            domain = world.domain(name)
            domain.trader.export(ref.signature, ref,
                                 properties={"home": name})
            traders.append(domain.trader)
            refs.append(ref)
        for i in range(length - 1):
            world.link_domains(chr(ord("A") + i), chr(ord("A") + i + 1))
            traders[i].link(f"to_{i + 1}", traders[i + 1])
            traders[i + 1].link(f"to_{i}", traders[i])
        return traders, refs

    def test_zero_hops_sees_only_local(self, world):
        traders, refs = self.build_chain(world)
        replies = traders[0].import_service(signature_of(Counter),
                                            max_hops=0)
        assert len(replies) == 1
        assert replies[0].via == ()

    def test_hops_expand_the_horizon(self, world):
        traders, refs = self.build_chain(world)
        one_hop = traders[0].import_service(signature_of(Counter),
                                            max_hops=1)
        assert len(one_hop) == 2
        two_hops = traders[0].import_service(signature_of(Counter),
                                             max_hops=2)
        assert len(two_hops) == 3

    def test_foreign_refs_carry_context(self, world):
        traders, refs = self.build_chain(world)
        replies = traders[0].import_service(signature_of(Counter),
                                            max_hops=2,
                                            query="home == 'C'")
        assert len(replies) == 1
        assert replies[0].ref.home_domain == "C"
        assert replies[0].via == ("to_1", "to_2")

    def test_imported_foreign_service_is_invocable(self, world):
        traders, refs = self.build_chain(world)
        reply = traders[0].import_service(signature_of(Counter),
                                          max_hops=2,
                                          query="home == 'C'")[0]
        clients = world.capsule("a1", "cli")
        proxy = world.binder_for(clients).bind(reply.ref)
        assert proxy.increment() == 1

    def test_cyclic_trader_graph_terminates(self, world):
        traders, refs = self.build_chain(world, length=3)
        # Close the cycle.
        traders[2].link("to_0", traders[0])
        traders[0].link("to_2", traders[2])
        replies = traders[0].import_service(signature_of(Counter),
                                            max_hops=10)
        assert len(replies) == 3  # each offer found exactly once

    def test_type_name_only_a_peer_knows(self, world):
        """Each searched trader reads a type name through its own type
        manager: the importer need not know it."""
        traders, refs = self.build_chain(world)
        traders[2].types.register("counting", refs[2].signature)
        reply = traders[0].import_one("counting", max_hops=2)
        assert reply.ref.home_domain == "C"
        assert reply.via == ("to_1", "to_2")
        # Within one hop no searched trader knows the name.
        with pytest.raises(TypeCheckError):
            traders[0].import_one("counting", max_hops=1)

    def test_self_link_rejected(self, world):
        traders, refs = self.build_chain(world, length=2)
        with pytest.raises(TradingError):
            traders[0].link("me", traders[0])
