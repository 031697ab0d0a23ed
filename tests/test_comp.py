"""Tests for the computational model: objects, outcomes, references."""

import pytest

from repro import OdpObject, Signal, operation, signature_of
from repro.comp.constraints import (
    EnvironmentConstraints,
    ReplicationSpec,
)
from repro.comp.interface import Interface, InterfaceState
from repro.comp.invocation import QoS
from repro.comp.outcomes import Termination
from repro.comp.reference import AccessPath, InterfaceRef
from repro.errors import InterfaceClosedError, SignatureError
from repro.types.terms import INT, STR


class TestOperationDecorator:
    def test_signature_derivation(self):
        class Service(OdpObject):
            @operation(params=[int, str], returns=[int],
                       errors={"nope": [str]})
            def act(self, n, s):
                return n

        signature = signature_of(Service)
        op = signature.operation("act")
        assert op.params == (INT, STR)
        assert op.termination("ok").results == (INT,)
        assert op.termination("nope").results == (STR,)

    def test_readonly_flag_recorded(self):
        class Service(OdpObject):
            @operation(readonly=True)
            def peek(self):
                pass

        assert signature_of(Service).operation("peek").readonly

    def test_announcement_declaration(self):
        class Service(OdpObject):
            @operation(params=[str], announcement=True)
            def notify(self, msg):
                pass

        assert signature_of(Service).operation("notify").announcement

    def test_announcement_with_returns_rejected(self):
        with pytest.raises(SignatureError):
            class Bad(OdpObject):
                @operation(returns=[int], announcement=True)
                def f(self):
                    pass

    def test_class_without_operations_rejected(self):
        class Plain(OdpObject):
            def method(self):
                pass

        with pytest.raises(SignatureError):
            signature_of(Plain)

    def test_decorated_methods_still_work_locally(self):
        class Service(OdpObject):
            @operation(returns=[int])
            def f(self):
                return 42

        assert Service().f() == 42

    def test_inherited_operations_included(self):
        class Base(OdpObject):
            @operation(returns=[int])
            def f(self):
                return 1

        class Derived(Base):
            @operation(returns=[int])
            def g(self):
                return 2

        names = signature_of(Derived).operation_names()
        assert names == ("f", "g")


class TestSnapshotProtocol:
    def test_default_snapshot_skips_private(self):
        class Thing(OdpObject):
            @operation()
            def noop(self):
                pass

        thing = Thing()
        thing.public = 1
        thing._private = 2
        assert thing.odp_snapshot() == {"public": 1}

    def test_restore(self):
        class Thing(OdpObject):
            @operation()
            def noop(self):
                pass

        thing = Thing()
        thing.odp_restore({"x": 9})
        assert thing.x == 9


class TestTermination:
    def test_ok_detection(self):
        assert Termination("ok").ok
        assert not Termination("failed").ok

    def test_single(self):
        assert Termination("ok", (5,)).single() == 5
        with pytest.raises(ValueError):
            Termination("ok", (1, 2)).single()

    def test_signal_carries_termination(self):
        signal = Signal("overdrawn", 10, "reason")
        assert signal.name == "overdrawn"
        assert signal.values == (10, "reason")
        assert signal.termination == Termination("overdrawn",
                                                 (10, "reason"))


class TestInterfaceLifecycle:
    def make(self):
        class Service(OdpObject):
            @operation()
            def f(self):
                pass

        return Interface("if-1", signature_of(Service), Service(), "caps")

    def test_close_is_terminal(self):
        interface = self.make()
        interface.close()
        assert interface.state == InterfaceState.CLOSED
        with pytest.raises(InterfaceClosedError):
            interface.require_usable()
        with pytest.raises(InterfaceClosedError):
            interface.reactivate(object())

    def test_passivate_reactivate_bumps_epoch(self):
        interface = self.make()
        impl = object()
        interface.passivate()
        assert interface.state == InterfaceState.PASSIVE
        interface.reactivate(impl)
        assert interface.state == InterfaceState.ACTIVE
        assert interface.epoch == 1
        assert interface.implementation is impl


class TestInterfaceRef:
    def make(self):
        class Service(OdpObject):
            @operation()
            def f(self):
                pass

        return InterfaceRef("if-1", signature_of(Service),
                            (AccessPath("n1", "c1"),))

    def test_immutable(self):
        ref = self.make()
        with pytest.raises(AttributeError):
            ref.epoch = 5

    def test_context_prefixing(self):
        ref = self.make()
        crossed = ref.prefixed_context("B").prefixed_context("A")
        assert crossed.context == ("A", "B")
        assert crossed.home_domain == "A"
        assert ref.context == ()

    def test_no_paths_rejected_on_access(self):
        class Service(OdpObject):
            @operation()
            def f(self):
                pass

        ref = InterfaceRef("x", signature_of(Service), ())
        with pytest.raises(ValueError):
            ref.primary_path()


class TestConstraints:
    def test_default_selection(self):
        assert EnvironmentConstraints.DEFAULT.selected() == \
               ("location", "federation")

    def test_but_creates_modified_copy(self):
        base = EnvironmentConstraints.DEFAULT
        changed = base.but(concurrency=True, location=False)
        assert changed.concurrency
        assert not changed.location
        assert base.location  # original untouched

    def test_replication_spec_validation(self):
        with pytest.raises(ValueError):
            ReplicationSpec(replicas=0)
        with pytest.raises(ValueError):
            ReplicationSpec(policy="quantum")
        with pytest.raises(ValueError):
            ReplicationSpec(replicas=2, reply_quorum=3)

    def test_qos_default_shared(self):
        assert QoS.DEFAULT.retries == 2
        assert QoS.DEFAULT is QoS.DEFAULT
