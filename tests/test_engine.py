"""Tests for capsules, channels, binder and dispatch (access transparency)."""

import pytest

from repro import (
    EnvironmentConstraints,
    OdpObject,
    QoS,
    Signal,
    operation,
    signature_of,
)
from repro.errors import (
    DeadlineExceededError,
    MessageLostError,
    ServerFaultError,
    TypeCheckError,
    UnknownOperationError,
)
from repro.net.latency import FixedLatency
from repro.runtime import World
from repro.transparency.access import (
    describe_client_stack,
    describe_server_stack,
)
from tests.conftest import Account, Counter, Echo


class TestExportAndDispatch:
    def test_export_registers_with_relocator(self, single_domain):
        world, domain, servers, clients = single_domain
        ref = servers.export(Counter())
        assert domain.relocator.try_lookup(ref.interface_id) is not None

    def test_duplicate_interface_id_rejected(self, single_domain):
        _, _, servers, _ = single_domain
        servers.export(Counter(), interface_id="fixed")
        with pytest.raises(ValueError):
            servers.export(Counter(), interface_id="fixed")

    def test_remote_invocation_returns_value(self, single_domain):
        world, _, servers, clients = single_domain
        ref = servers.export(Counter(5))
        proxy = world.binder_for(clients).bind(ref)
        assert proxy.increment() == 6
        assert proxy.read() == 6

    def test_remote_invocation_crosses_the_network(self, single_domain):
        world, _, servers, clients = single_domain
        ref = servers.export(Counter())
        proxy = world.binder_for(clients).bind(ref)
        before = world.network.total_messages
        proxy.increment()
        assert world.network.total_messages == before + 2  # req + reply

    def test_signal_termination_raised_at_client(self, single_domain):
        world, _, servers, clients = single_domain
        ref = servers.export(Account(10))
        proxy = world.binder_for(clients).bind(ref)
        with pytest.raises(Signal) as exc:
            proxy.withdraw(100)
        assert exc.value.name == "overdrawn"
        assert exc.value.values == (10,)

    def test_undeclared_signal_is_a_server_fault(self, single_domain):
        world, _, servers, clients = single_domain

        class Sneaky(OdpObject):
            @operation()
            def f(self):
                raise Signal("undeclared_outcome")

        proxy = world.binder_for(clients).bind(servers.export(Sneaky()))
        with pytest.raises(ServerFaultError):
            proxy.f()

    def test_python_error_is_a_server_fault(self, single_domain):
        world, _, servers, clients = single_domain

        class Broken(OdpObject):
            @operation()
            def f(self):
                raise RuntimeError("internal")

        proxy = world.binder_for(clients).bind(servers.export(Broken()))
        with pytest.raises(ServerFaultError, match="internal"):
            proxy.f()

    def test_multiple_results_unpack_to_tuple(self, single_domain):
        world, _, servers, clients = single_domain

        class Pairs(OdpObject):
            @operation(returns=[int, str])
            def both(self):
                return 1, "x"

        proxy = world.binder_for(clients).bind(servers.export(Pairs()))
        assert proxy.both() == (1, "x")

    def test_void_result_is_none(self, single_domain):
        world, _, servers, clients = single_domain

        class Quiet(OdpObject):
            @operation()
            def f(self):
                pass

        proxy = world.binder_for(clients).bind(servers.export(Quiet()))
        assert proxy.f() is None


class TestTypeChecking:
    def test_bind_checks_required_signature(self, single_domain):
        world, _, servers, clients = single_domain
        ref = servers.export(Counter())
        with pytest.raises(TypeCheckError):
            world.binder_for(clients).bind(ref, required=Account)

    def test_bind_accepts_narrower_requirement(self, single_domain):
        world, _, servers, clients = single_domain
        ref = servers.export(Account(1))

        class JustBalance(OdpObject):
            @operation(returns=[int], readonly=True)
            def balance_of(self):
                ...

        proxy = world.binder_for(clients).bind(ref, required=JustBalance)
        assert proxy.balance_of() == 1

    def test_runtime_arg_type_check(self, single_domain):
        world, _, servers, clients = single_domain
        proxy = world.binder_for(clients).bind(servers.export(Account(1)))
        with pytest.raises(TypeCheckError):
            proxy.deposit("lots")

    def test_runtime_arity_check(self, single_domain):
        world, _, servers, clients = single_domain
        proxy = world.binder_for(clients).bind(servers.export(Account(1)))
        with pytest.raises(TypeCheckError):
            proxy._channel.invoke("deposit", (1, 2))

    def test_unknown_operation(self, single_domain):
        world, _, servers, clients = single_domain
        proxy = world.binder_for(clients).bind(servers.export(Account(1)))
        with pytest.raises(UnknownOperationError):
            proxy._channel.invoke("steal", ())


class TestArgumentPassing:
    def test_constant_values_copied(self, single_domain):
        world, _, servers, clients = single_domain
        proxy = world.binder_for(clients).bind(servers.export(Echo()))
        assert proxy.echo(42) == 42
        assert proxy.echo("text") == "text"
        assert proxy.echo((1, 2)) == (1, 2)

    def test_record_copied_as_frozen(self, single_domain):
        world, _, servers, clients = single_domain
        proxy = world.binder_for(clients).bind(servers.export(Echo()))
        result = proxy.echo({"a": 1})
        assert result["a"] == 1

    def test_mutable_object_passed_by_reference(self, single_domain):
        world, _, servers, clients = single_domain

        class Holder(OdpObject):
            stored = None

            @operation(params=["any"])
            def keep(self, thing):
                Holder.stored = thing

        holder_proxy = world.binder_for(clients).bind(
            servers.export(Holder()))
        shared = Counter(0)
        # Passing a mutable ADT implicitly exports it from the *client*
        # capsule and ships a reference (section 4.4).
        holder_proxy.keep(shared)
        from repro.comp.reference import InterfaceRef
        assert isinstance(Holder.stored, InterfaceRef)
        # The server can invoke back through the reference and observe
        # shared state.
        back = world.binder_for(servers).bind(Holder.stored)
        assert back.increment() == 1
        assert shared.value == 1


class TestAnnouncements:
    def test_announcement_returns_immediately(self, single_domain):
        world, _, servers, clients = single_domain
        echo = Echo()
        proxy = world.binder_for(clients).bind(servers.export(echo))
        assert proxy.fire("payload") is None
        assert not hasattr(echo, "last")
        world.settle()
        assert echo.last == "payload"

    def test_announcement_failure_is_silent(self, single_domain):
        world, _, servers, clients = single_domain

        class Fragile(OdpObject):
            @operation(params=[str], announcement=True)
            def f(self, arg):
                raise RuntimeError("nobody hears this")

        proxy = world.binder_for(clients).bind(servers.export(Fragile()))
        proxy.f("x")
        world.settle()  # must not raise


class TestQoS:
    def test_deadline_exceeded(self):
        world = World(seed=1, latency=FixedLatency(100.0))
        world.node("org", "s")
        world.node("org", "c")
        servers = world.capsule("s", "srv")
        clients = world.capsule("c", "cli")
        proxy = world.binder_for(clients).bind(servers.export(Counter()))
        with pytest.raises(DeadlineExceededError):
            proxy.increment(_qos=QoS(deadline_ms=50.0))

    def test_generous_deadline_ok(self):
        world = World(seed=1, latency=FixedLatency(10.0))
        world.node("org", "s")
        world.node("org", "c")
        servers = world.capsule("s", "srv")
        clients = world.capsule("c", "cli")
        proxy = world.binder_for(clients).bind(servers.export(Counter()))
        assert proxy.increment(_qos=QoS(deadline_ms=500.0)) == 1

    def test_retries_mask_transient_loss(self):
        world = World(seed=5, drop_probability=0.3)
        world.node("org", "s")
        world.node("org", "c")
        servers = world.capsule("s", "srv")
        clients = world.capsule("c", "cli")
        proxy = world.binder_for(clients).bind(
            servers.export(Counter()),
            qos=QoS(retries=50, retry_delay_ms=0.5))
        for _ in range(20):
            proxy.increment()
        assert world.faults.drops > 0  # losses really happened

    def test_no_retries_surfaces_loss(self):
        world = World(seed=5, drop_probability=0.6)
        world.node("org", "s")
        world.node("org", "c")
        servers = world.capsule("s", "srv")
        clients = world.capsule("c", "cli")
        proxy = world.binder_for(clients).bind(
            servers.export(Counter()), qos=QoS(retries=0))
        with pytest.raises(MessageLostError):
            for _ in range(50):
                proxy.increment()


class TestLocalShortcut:
    def test_co_located_invocation_skips_network(self, single_domain):
        world, _, servers, clients = single_domain
        ref = servers.export(Counter())
        # Bind from a capsule on the *same* node as the server.
        same_node = world.capsule("server-node", "neighbours")
        proxy = world.binder_for(same_node).bind(ref)
        before = world.network.total_messages
        assert proxy.increment() == 1
        assert world.network.total_messages == before

    def test_shortcut_can_be_disabled(self, single_domain):
        world, _, servers, clients = single_domain
        ref = servers.export(Counter())
        same_node = world.capsule("server-node", "neighbours")
        proxy = world.binder_for(same_node).bind(
            ref,
            constraints=EnvironmentConstraints(allow_local_shortcut=False))
        before = world.network.total_messages
        assert proxy.increment() == 1
        assert world.network.total_messages == before + 2

    def test_server_stack_still_runs_locally(self, single_domain):
        world, _, servers, clients = single_domain
        ref = servers.export(Account(1))
        same_node = world.capsule("server-node", "neighbours")
        proxy = world.binder_for(same_node).bind(ref)
        # Type checking (a server-side layer) still applies.
        with pytest.raises(TypeCheckError):
            proxy.deposit("bad")


class TestStackIntrospection:
    def test_default_client_stack(self, single_domain):
        world, _, servers, clients = single_domain
        proxy = world.binder_for(clients).bind(servers.export(Counter()))
        stack = describe_client_stack(proxy)
        assert stack == ["federation", "location", "transport"]

    def test_minimal_client_stack(self, single_domain):
        world, _, servers, clients = single_domain
        proxy = world.binder_for(clients).bind(
            servers.export(Counter()),
            constraints=EnvironmentConstraints(location=False,
                                               federation=False))
        assert describe_client_stack(proxy) == ["transport"]

    def test_server_stack_reflects_selection(self, single_domain):
        world, _, servers, clients = single_domain
        ref = servers.export(
            Counter(),
            constraints=EnvironmentConstraints(concurrency=True))
        interface = servers.interfaces[ref.interface_id]
        assert describe_server_stack(interface) == \
               ["dispatch-typecheck", "concurrency"]
