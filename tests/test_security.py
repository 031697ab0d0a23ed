"""Tests for security: shared secrets, guards, policies, audit."""

import pytest

from repro import EnvironmentConstraints, SecuritySpec
from repro.errors import AccessDeniedError, AuthenticationError
from repro.security.policy import PolicyStore, SecurityPolicy
from repro.security.secrets import SecretAuthority
from tests.conftest import Account, Counter


class TestSecretAuthority:
    def test_enrol_and_verify(self):
        authority = SecretAuthority("dom")
        authority.enrol("alice")
        credentials = authority.credentials_for("alice")
        authority.verify("alice", credentials)  # no exception

    def test_unknown_principal_rejected(self):
        authority = SecretAuthority("dom")
        with pytest.raises(AuthenticationError):
            authority.verify("ghost", {})

    def test_wrong_token_rejected(self):
        authority = SecretAuthority("dom")
        authority.enrol("alice")
        with pytest.raises(AuthenticationError):
            authority.verify("alice", {"dom": "forged"})

    def test_credentials_are_domain_scoped(self):
        a = SecretAuthority("A")
        b = SecretAuthority("B")
        a.enrol("alice")
        b.enrol("alice")
        with pytest.raises(AuthenticationError):
            b.verify("alice", a.credentials_for("alice"))

    def test_stolen_identity_without_secret_fails(self):
        """Anyone can claim to be alice; only the secret-holder verifies."""
        authority = SecretAuthority("dom")
        authority.enrol("alice")
        authority.enrol("mallory")
        mallory_creds = authority.credentials_for("mallory")
        with pytest.raises(AuthenticationError):
            authority.verify("alice", mallory_creds)

    def test_custom_secret(self):
        authority = SecretAuthority("dom")
        authority.enrol("alice", b"my-shared-secret")
        authority.verify("alice", authority.credentials_for("alice"))


class TestSecurityPolicy:
    def test_explicit_allow(self):
        policy = SecurityPolicy("p", {"read": {"alice"}})
        assert policy.permits("read", "alice")
        assert not policy.permits("read", "bob")
        assert not policy.permits("write", "alice")

    def test_wildcard_principal(self):
        policy = SecurityPolicy("p", {"read": {"*"}})
        assert policy.permits("read", "anyone")
        assert policy.permits("read", None)

    def test_wildcard_operation(self):
        policy = SecurityPolicy("p", {"*": {"admin"}})
        assert policy.permits("anything", "admin")
        assert not policy.permits("anything", "user")

    def test_specific_rule_overrides_wildcard(self):
        policy = SecurityPolicy("p", {"*": {"admin"},
                                      "read": {"alice"}})
        assert policy.permits("read", "alice")
        assert not policy.permits("read", "admin")

    def test_default_allow_policy(self):
        policy = SecurityPolicy("open", {"secret_op": ()},
                                default_allow=True)
        assert policy.permits("anything", "anyone")
        assert not policy.permits("secret_op", "anyone")

    def test_policy_store(self):
        store = PolicyStore()
        assert not store.get("default").permits("x", "y")
        assert store.get("open").permits("x", "y")
        with pytest.raises(KeyError):
            store.get("missing")


def secured_counter(world, domain, servers, clients, policy_rules,
                    principal, require_auth=True):
    domain.policies.register(SecurityPolicy("test-policy", policy_rules))
    ref = servers.export(
        Counter(),
        constraints=EnvironmentConstraints(security=SecuritySpec(
            policy="test-policy",
            require_authentication=require_auth)))
    return world.binder_for(clients).bind(ref, principal=principal)


class TestGuardedInterfaces:
    def test_enrolled_and_allowed_principal_passes(self, single_domain):
        world, domain, servers, clients = single_domain
        domain.authority.enrol("alice")
        proxy = secured_counter(world, domain, servers, clients,
                                {"increment": {"alice"}}, "alice")
        assert proxy.increment() == 1

    def test_policy_denial(self, single_domain):
        world, domain, servers, clients = single_domain
        domain.authority.enrol("bob")
        proxy = secured_counter(world, domain, servers, clients,
                                {"increment": {"alice"}}, "bob")
        with pytest.raises(AccessDeniedError):
            proxy.increment()

    def test_unauthenticated_rejected(self, single_domain):
        world, domain, servers, clients = single_domain
        proxy = secured_counter(world, domain, servers, clients,
                                {"increment": {"*"}}, "stranger")
        with pytest.raises(AuthenticationError):
            proxy.increment()

    def test_anonymous_rejected_when_auth_required(self, single_domain):
        world, domain, servers, clients = single_domain
        proxy = secured_counter(world, domain, servers, clients,
                                {"increment": {"*"}}, None)
        with pytest.raises(AuthenticationError):
            proxy.increment()

    def test_auth_optional_policy_still_enforced(self, single_domain):
        world, domain, servers, clients = single_domain
        proxy = secured_counter(world, domain, servers, clients,
                                {"increment": {"*"}}, None,
                                require_auth=False)
        assert proxy.increment() == 1

    def test_guard_inside_encapsulation_boundary(self, single_domain):
        """Even co-located, direct-local-access cannot bypass the guard."""
        world, domain, servers, clients = single_domain
        domain.authority.enrol("alice")
        domain.policies.register(
            SecurityPolicy("strict", {"increment": {"alice"}}))
        ref = servers.export(
            Counter(),
            constraints=EnvironmentConstraints(
                security=SecuritySpec(policy="strict")))
        neighbour = world.capsule("server-node", "neighbour")
        proxy = world.binder_for(neighbour).bind(ref, principal="intruder")
        with pytest.raises((AccessDeniedError, AuthenticationError)):
            proxy.increment()

    def test_audit_records_allow_and_deny(self, single_domain):
        world, domain, servers, clients = single_domain
        domain.authority.enrol("alice")
        domain.authority.enrol("bob")
        domain.policies.register(
            SecurityPolicy("audited", {"increment": {"alice"}}))
        ref = servers.export(
            Counter(),
            constraints=EnvironmentConstraints(
                security=SecuritySpec(policy="audited", audit=True)))
        alice = world.binder_for(clients).bind(ref, principal="alice")
        bob = world.binder_for(clients).bind(ref, principal="bob")
        alice.increment()
        with pytest.raises(AccessDeniedError):
            bob.increment()
        allowed = domain.audit.records(allowed=True)
        denied = domain.audit.denials()
        assert len(allowed) == 1 and allowed[0].principal == "alice"
        assert len(denied) == 1 and denied[0].principal == "bob"

    def test_audit_can_be_disabled(self, single_domain):
        world, domain, servers, clients = single_domain
        domain.authority.enrol("alice")
        domain.policies.register(
            SecurityPolicy("quiet", {"increment": {"alice"}}))
        ref = servers.export(
            Counter(),
            constraints=EnvironmentConstraints(
                security=SecuritySpec(policy="quiet", audit=False)))
        proxy = world.binder_for(clients).bind(ref, principal="alice")
        proxy.increment()
        assert len(domain.audit) == 0

    def test_forged_reference_does_not_help(self, single_domain):
        """References are not secret; assembling one grants nothing
        (section 7.1)."""
        world, domain, servers, clients = single_domain
        domain.authority.enrol("alice")
        domain.policies.register(
            SecurityPolicy("vault", {"increment": {"alice"}}))
        ref = servers.export(
            Counter(),
            constraints=EnvironmentConstraints(
                security=SecuritySpec(policy="vault")))
        # An attacker re-assembles the reference by hand.
        from repro.comp.reference import InterfaceRef
        forged = InterfaceRef(ref.interface_id, ref.signature, ref.paths,
                              epoch=ref.epoch)
        proxy = world.binder_for(clients).bind(forged,
                                               principal="mallory")
        with pytest.raises(AuthenticationError):
            proxy.increment()
