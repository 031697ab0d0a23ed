"""Tests for the World builder, wire-error plumbing, and the node
manager's interplay with failure transparency (boot + recover)."""

import pytest

from repro import EnvironmentConstraints, FailureSpec
from repro.engine.wire_errors import encode_error, raise_error
from repro.mgmt.nodemanager import NodeManager, ServerSpec
from repro.ndr.codec import Marshaller
from repro.runtime import World
from repro import errors as err
from tests.conftest import Account, Counter, queued


class TestWorld:
    def test_domain_is_idempotent(self, world):
        assert world.domain("org") is world.domain("org")

    def test_capsule_is_idempotent(self, world):
        world.node("org", "n1")
        assert world.capsule("n1", "c") is world.capsule("n1", "c")

    def test_unknown_node_rejected(self, world):
        with pytest.raises(KeyError):
            world.capsule("ghost", "c")

    def test_nucleus_lookup(self, world):
        nucleus = world.node("org", "n1")
        assert world.nucleus("n1") is nucleus

    def test_settle_drains_scheduler(self, world):
        fired = []
        world.scheduler.after(5.0, lambda: fired.append(True))
        world.settle()
        assert fired == [True]
        assert queued(world.scheduler) == 0

    def test_traffic_summary(self, single_domain):
        world, domain, servers, clients = single_domain
        proxy = world.binder_for(clients).bind(servers.export(Counter()))
        proxy.increment()
        traffic = world.traffic()
        assert traffic["messages"] == 2
        assert traffic["bytes"] > 0
        assert traffic["drops"] == 0

    def test_streams_property_lazy_and_cached(self, world):
        world.node("org", "n1")
        assert world.streams is world.streams


class TestWireErrors:
    CASES = [
        err.DeadlockError("d"),
        err.LockBusyError("b"),
        err.TransactionAborted("t"),
        err.OrderingViolation("o"),
        err.InvalidTransactionState("i"),
        err.AuthenticationError("a"),
        err.AccessDeniedError("ad"),
        err.NoQuorumError("nq"),
        err.MembershipError("m"),
        err.InterfaceClosedError("c"),
        err.UnknownOperationError("u"),
        err.ServerFaultError("sf"),
        err.FederationError("f"),
        err.StorageError("st"),
        err.RecoveryError("r"),
        err.MigrationError("mg"),
        err.MarshalError("ma"),
        err.TypeCheckError("tc"),
    ]

    @pytest.mark.parametrize("exc", CASES, ids=lambda e: type(e).__name__)
    def test_roundtrip_preserves_type(self, exc):
        marshaller = Marshaller()
        encoded = encode_error(exc, marshaller)
        with pytest.raises(type(exc)):
            raise_error(encoded, marshaller)

    def test_stale_reference_carries_hint(self, single_domain):
        world, domain, servers, clients = single_domain
        ref = servers.export(Counter())
        marshaller = Marshaller()
        encoded = encode_error(
            err.StaleReferenceError("moved", forward_hint=ref),
            marshaller)
        with pytest.raises(err.StaleReferenceError) as caught:
            raise_error(encoded, marshaller)
        assert caught.value.forward_hint == ref

    def test_unknown_code_degrades_to_odp_error(self):
        marshaller = Marshaller()
        with pytest.raises(err.OdpError):
            raise_error({"code": "from-the-future", "msg": "x"},
                        marshaller)


class TestNodeManagerWithRecovery:
    def test_checkpointed_server_recovers_rather_than_resets(
            self, trio_domain):
        """After a node dies, a stateful default server should come back
        via failure transparency (exact state), while stateless ones are
        simply re-created by boot()."""
        world, domain, (c1, c2, c3), clients = trio_domain
        nucleus = world.nucleus("n1")
        manager = NodeManager(nucleus)
        manager.declare(ServerSpec(
            name="ledger",
            capsule_name="srv",
            factory=lambda: Account(0),
            constraints=EnvironmentConstraints(
                failure=FailureSpec(checkpoint_every=2)),
            advertise={"kind": "ledger"}))
        manager.boot()
        ledger_ref = manager.servers["ledger"].ref
        proxy = world.binder_for(clients).bind(ledger_ref)
        for _ in range(5):
            proxy.deposit(10)

        world.crash_node("n1")
        # The operator recovers the stateful service elsewhere...
        domain.recovery.recover(ledger_ref.interface_id, c2)
        assert proxy.balance_of() == 50
        # ...and the proxy keeps following it.
        assert proxy.deposit(1) == 51

    def test_boot_readvertises_after_restart(self, single_domain):
        world, domain, servers, clients = single_domain
        nucleus = world.nucleus("server-node")
        manager = NodeManager(nucleus)
        manager.declare(ServerSpec(
            name="counter", capsule_name="extra", factory=Counter,
            advertise={"kind": "counter"}, service_type="counting"))
        manager.boot()
        offers_before = domain.trader.offer_count()
        manager.stop("counter")
        world.crash_node("server-node")
        world.restart_node("server-node")
        manager.boot()
        assert manager.status()["counter"] is True
        assert domain.trader.offer_count() == offers_before
