"""Tests for the enterprise and information viewpoint languages."""

import pytest

from repro.enterprise import (
    Community,
    Contract,
    Dependability,
    Objective,
    Role,
    derive_constraints,
    derive_policy,
)
from repro.info import (
    Conflict,
    EntityType,
    InformationSchema,
    InfoStore,
    compare_vectors,
    detect_conflicts,
    reconcile_stores,
)
from repro.recovery.checkpoint import checkpoint_key


def trading_community():
    community = Community("exchange", [Objective("settle-trades")])
    community.add_role(Role(
        "trader-member",
        performs={"place_order", "cancel_order"},
        audited=True))
    community.add_role(Role(
        "order-book",
        provides={"place_order", "cancel_order", "quote"},
        dependability=Dependability.MISSION_CRITICAL))
    community.add_role(Role(
        "observer",
        performs={"quote"},
        dependability=Dependability.BEST_EFFORT))
    community.add_contract(Contract(
        "membership", "trader-member", "order-book",
        operations={"place_order", "cancel_order"}))
    community.assign("alice", "trader-member")
    community.assign("bob", "trader-member")
    community.assign("carol", "observer")
    return community


class TestCommunityModel:
    def test_role_assignment_and_lookup(self):
        community = trading_community()
        assert community.fillers("trader-member") == {"alice", "bob"}
        assert community.assignments["carol"] == {"observer"}

    def test_permitted_operations_union_roles(self):
        community = trading_community()
        community.assign("alice", "observer")
        policy = derive_policy(community, community.roles["order-book"])
        assert all(policy.permits(operation, "alice") for operation
                   in ("place_order", "cancel_order", "quote"))
        assert not policy.permits("quote", "bob")

    def test_audited_operations_from_contracts_and_roles(self):
        community = trading_community()
        assert community.audited_operations() == \
               {"place_order", "cancel_order"}

    def test_unknown_role_rejected(self):
        community = trading_community()
        with pytest.raises(ValueError):
            community.assign("dave", "ghost-role")
        with pytest.raises(ValueError):
            community.add_contract(Contract("bad", "ghost", "order-book",
                                            operations=set()))


class TestRequirementDerivation:
    def test_policy_allows_exactly_role_fillers(self):
        community = trading_community()
        policy = derive_policy(community,
                               community.roles["order-book"])
        assert policy.permits("place_order", "alice")
        assert policy.permits("place_order", "bob")
        assert not policy.permits("place_order", "carol")
        assert policy.permits("quote", "carol")
        assert not policy.permits("quote", "dave")

    def test_mission_critical_gets_full_protection(self):
        community = trading_community()
        derived = derive_constraints(community,
                                     community.roles["order-book"])
        constraints = derived.constraints
        assert constraints.concurrency
        assert constraints.failure is not None
        assert constraints.security is not None
        assert not constraints.allow_local_shortcut
        assert derived.replication_advice is not None
        assert derived.replication_advice.replicas == 3

    def test_best_effort_keeps_flexibility(self):
        community = trading_community()
        derived = derive_constraints(community,
                                     community.roles["observer"])
        assert not derived.constraints.concurrency
        assert derived.constraints.failure is None
        assert derived.replication_advice is None

    def test_derived_requirements_drive_a_real_deployment(
            self, single_domain):
        """Enterprise statements end-to-end: community -> constraints ->
        guarded, transactional, checkpointed server."""
        world, domain, servers, clients = single_domain
        from tests.conftest import Account
        community = Community("bank")
        community.add_role(Role("teller", performs={"deposit", "withdraw",
                                                    "balance_of"}))
        community.add_role(Role(
            "vault", provides={"deposit", "withdraw", "balance_of"},
            dependability=Dependability.MISSION_CRITICAL))
        community.assign("alice", "teller")
        derived = derive_constraints(community, community.roles["vault"])
        domain.policies.register(derived.policy)
        domain.authority.enrol("alice")
        ref = servers.export(Account(10),
                             constraints=derived.constraints)
        proxy = world.binder_for(clients).bind(ref, principal="alice")
        assert proxy.deposit(5) == 15
        from repro.errors import AuthenticationError
        outsider = world.binder_for(clients).bind(ref, principal="eve")
        with pytest.raises(AuthenticationError):
            outsider.withdraw(1)
        # Mission-critical => checkpointed, hence recoverable.
        assert domain.repository.contains(
            checkpoint_key(ref.interface_id))


def stock_schema():
    schema = InformationSchema("inventory")
    schema.add_entity(EntityType(
        "item",
        {"sku": str, "quantity": int, "price": float},
        invariants=[("non-negative-quantity",
                     lambda v: v["quantity"] >= 0)]))
    schema.add_entity(EntityType("warehouse", {"name": str}))
    return schema


class TestInformationSchema:
    def test_valid_instance(self):
        schema = stock_schema()
        assert schema.validate("item", {"sku": "A", "quantity": 3,
                                        "price": 1.5}) == []

    def test_missing_and_undeclared_attributes(self):
        schema = stock_schema()
        problems = schema.validate("item", {"sku": "A", "colour": "red"})
        assert any("missing attribute" in p for p in problems)
        assert any("undeclared attribute 'colour'" in p for p in problems)

    def test_type_violations(self):
        schema = stock_schema()
        problems = schema.validate("item", {"sku": "A", "quantity": "lots",
                                            "price": 1.0})
        assert any("quantity" in p for p in problems)

    def test_invariant_violations(self):
        schema = stock_schema()
        problems = schema.validate("item", {"sku": "A", "quantity": -1,
                                            "price": 1.0})
        assert problems == ["invariant 'non-negative-quantity' violated"]

    def test_int_accepted_where_float_expected(self):
        schema = stock_schema()
        assert schema.validate("item", {"sku": "A", "quantity": 1,
                                        "price": 2}) == []


class TestVersionVectors:
    def test_comparisons(self):
        assert compare_vectors({"a": 1}, {"a": 1}) == "equal"
        assert compare_vectors({"a": 2}, {"a": 1}) == "a_dominates"
        assert compare_vectors({"a": 1}, {"a": 1, "b": 1}) == "b_dominates"
        assert compare_vectors({"a": 2, "b": 0}, {"a": 1, "b": 1}) == \
               "concurrent"

    def test_store_updates_bump_own_component(self):
        store = InfoStore("A", stock_schema())
        store.create("item-1", "item", {"sku": "X", "quantity": 1,
                                        "price": 1.0})
        store.update("item-1", quantity=2)
        assert store.get("item-1").vector == {"A": 2}

    def test_schema_enforced_on_update(self):
        store = InfoStore("A", stock_schema())
        store.create("item-1", "item", {"sku": "X", "quantity": 1,
                                        "price": 1.0})
        with pytest.raises(ValueError):
            store.update("item-1", quantity=-5)


def federated_copies():
    schema = stock_schema()
    a = InfoStore("A", schema)
    b = InfoStore("B", schema)
    a.create("item-1", "item", {"sku": "X", "quantity": 10, "price": 1.0})
    b.accept(a.get("item-1"))
    return a, b


class TestReconciliation:
    def test_no_conflict_when_one_side_dominates(self):
        a, b = federated_copies()
        a.update("item-1", quantity=5)
        assert detect_conflicts([a, b]) == []
        reconcile_stores([a, b])
        assert b.get("item-1").values["quantity"] == 5

    def test_concurrent_updates_detected(self):
        a, b = federated_copies()
        a.update("item-1", quantity=5)
        b.update("item-1", quantity=7)
        conflicts = detect_conflicts([a, b])
        assert len(conflicts) == 1
        assert isinstance(conflicts[0], Conflict)

    def test_lww_converges_deterministically(self):
        a, b = federated_copies()
        a.update("item-1", quantity=5)
        b.update("item-1", quantity=7)
        b.update("item-1", quantity=8)  # b has more updates: wins
        resolved = reconcile_stores([a, b], policy="lww")
        assert resolved == 1
        assert a.get("item-1").values == b.get("item-1").values
        assert a.get("item-1").values["quantity"] == 8
        assert detect_conflicts([a, b]) == []

    def test_merge_policy(self):
        a, b = federated_copies()
        a.update("item-1", quantity=5)
        b.update("item-1", price=9.0)

        def merge(left, right):
            # Inventory rule: min quantity, max price.
            return {
                "sku": left["sku"],
                "quantity": min(left["quantity"], right["quantity"]),
                "price": max(left["price"], right["price"]),
            }

        reconcile_stores([a, b], policy="merge", merge_fields=merge)
        for store in (a, b):
            values = store.get("item-1").values
            assert values["quantity"] == 5
            assert values["price"] == 9.0

    def test_three_party_convergence(self):
        schema = stock_schema()
        stores = [InfoStore(name, schema) for name in ("A", "B", "C")]
        stores[0].create("item-1", "item",
                         {"sku": "X", "quantity": 10, "price": 1.0})
        for other in stores[1:]:
            other.accept(stores[0].get("item-1"))
        stores[0].update("item-1", quantity=1)
        stores[1].update("item-1", quantity=2)
        stores[2].update("item-1", quantity=3)
        reconcile_stores(stores, policy="lww")
        values = [s.get("item-1").values["quantity"] for s in stores]
        assert len(set(values)) == 1
        assert detect_conflicts(stores) == []

    def test_missing_entities_spread(self):
        a, b = federated_copies()
        a.create("item-2", "item", {"sku": "Y", "quantity": 1,
                                    "price": 2.0})
        reconcile_stores([a, b])
        assert "item-2" in b.entity_ids()
