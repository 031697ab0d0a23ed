"""Failure-injection tests: partitions, crashes and loss at the worst
moments.  Transparency "cannot guarantee that things will always work
perfectly" (section 4.1) — these tests pin down exactly what the
platform guarantees when it cannot mask a fault.
"""

import pytest

from repro import EnvironmentConstraints, QoS, ReplicationSpec
from repro.errors import (
    MessageLostError,
    NodeUnreachableError,
    TransactionAborted,
)
from repro.tx.transaction import TxState
from tests.conftest import Account, Counter, KvStore

TX = EnvironmentConstraints(concurrency=True)


class TestPartitions:
    def test_partition_isolates_then_heals(self, single_domain):
        world, domain, servers, clients = single_domain
        proxy = world.binder_for(clients).bind(servers.export(Counter()))
        proxy.increment()
        world.partition(["server-node"], ["client-node"])
        with pytest.raises(NodeUnreachableError):
            proxy.increment()
        world.faults.heal_partition()
        assert proxy.increment() == 2

    def test_partition_during_prepare_aborts(self, trio_domain):
        world, domain, (c1, c2, c3), clients = trio_domain
        a = world.binder_for(clients).bind(
            c1.export(Account(100), constraints=TX))
        b = world.binder_for(clients).bind(
            c2.export(Account(100), constraints=TX))
        tx = domain.tx_manager.begin()
        domain.tx_manager.push_current(tx)
        a.deposit(10)
        b.deposit(10)
        domain.tx_manager.pop_current(tx)
        # Cut the coordinator (n1) off from n2 before commit: the n2
        # participant is unreachable in prepare -> unanimous-vote fails.
        world.faults.cut_link("n1", "n2")
        with pytest.raises(TransactionAborted, match="unreachable"):
            tx.commit()
        # The n2 participant could not be told to abort: it is in-doubt
        # and still holds its locks.
        assert len(tx.indoubt) == 1
        world.faults.heal_link("n1", "n2")
        assert domain.tx_manager.resolve_indoubt(tx) == 1
        # Atomicity preserved on both sides.
        assert a.balance_of() == 100
        assert b.balance_of() == 100

    def test_partition_during_commit_phase_leaves_indoubt(
            self, trio_domain):
        """A participant cut off *after* voting yes ends up in-doubt;
        the coordinator's decision stands and is not rolled back."""
        world, domain, (c1, c2, c3), clients = trio_domain
        a = world.binder_for(clients).bind(
            c1.export(Account(100), constraints=TX))
        b_ref = c2.export(Account(100), constraints=TX)
        b = world.binder_for(clients).bind(b_ref)
        tx = domain.tx_manager.begin()
        domain.tx_manager.push_current(tx)
        a.deposit(10)
        b.deposit(10)
        domain.tx_manager.pop_current(tx)

        # Sabotage phase 2 only: prepare passes, commit cannot reach n2.
        original_exchange = domain.tx_manager.exchange

        def flaky_exchange(transaction, participant, phase):
            if phase == "commit" and participant.node == "n2":
                raise NodeUnreachableError("n2 cut off mid-commit")
            return original_exchange(transaction, participant, phase)

        domain.tx_manager.exchange = flaky_exchange
        tx.commit()
        domain.tx_manager.exchange = original_exchange

        assert tx.state == TxState.COMMITTED
        assert len(tx.indoubt) == 1
        assert tx.indoubt[0].node == "n2"
        # The co-ordinator-side participant committed.
        assert a.balance_of() == 110
        # The in-doubt participant can learn the outcome later: its
        # layer still answers txctl.
        layer = c2.interfaces[b_ref.interface_id].annotations[
            "concurrency_layer"]
        ok, _ = layer.txctl("commit", tx.transaction_id)
        assert ok
        assert b.balance_of() == 110

    def test_group_on_minority_side_keeps_serving_reads(
            self, trio_domain):
        world, domain, capsules, clients = trio_domain
        group, gref = domain.groups.create(
            KvStore, capsules, ReplicationSpec(replicas=3,
                                               policy="active"))
        proxy = world.binder_for(clients).bind(gref)
        proxy.put("k", "v")
        # Partition member n3 away from everyone (client included).
        world.partition(["n1", "n2", "client-node"], ["n3"])
        proxy.put("k", "v2")  # n3 suspected, view change
        assert proxy.get("k") == "v2"
        assert len(group.view.live_members()) == 2

    def test_healed_member_resyncs_on_revival(self, trio_domain):
        world, domain, capsules, clients = trio_domain
        group, gref = domain.groups.create(
            KvStore, capsules, ReplicationSpec(replicas=3,
                                               policy="active"))
        proxy = world.binder_for(clients).bind(gref)
        proxy.put("a", "1")
        world.partition(["n1", "n2", "client-node"], ["n3"])
        proxy.put("b", "2")
        world.faults.heal_partition()
        straggler = next(m for m in group.view.members
                         if m.node == "n3")
        domain.groups.revive(group.group_id, straggler.index)
        proxy.put("c", "3")
        capsule, interface = domain.groups._plumbing[
            (group.group_id, straggler.index)]
        assert interface.implementation.data == \
               {"a": "1", "b": "2", "c": "3"}


class TestMessageLoss:
    def test_interrogations_survive_heavy_loss_with_retries(self):
        from repro.runtime import World
        world = World(seed=3, drop_probability=0.4)
        world.node("org", "s")
        world.node("org", "c")
        servers = world.capsule("s", "srv")
        clients = world.capsule("c", "cli")
        proxy = world.binder_for(clients).bind(
            servers.export(Counter()),
            qos=QoS(retries=100, retry_delay_ms=0.2))
        for _ in range(25):
            proxy.increment()
        assert world.faults.drops > 0

    def test_lost_reply_is_not_silently_executed_twice(self):
        """Retries are exactly-once: when the *reply* leg is lost the
        retransmission is answered from the server's reply cache, so a
        non-idempotent counter observes each call exactly once even
        under heavy loss (see tests/test_resilience.py for the
        targeted regression)."""
        from repro.runtime import World
        world = World(seed=8, drop_probability=0.3)
        world.node("org", "s")
        world.node("org", "c")
        servers = world.capsule("s", "srv")
        clients = world.capsule("c", "cli")
        counter = Counter()
        proxy = world.binder_for(clients).bind(
            servers.export(counter),
            qos=QoS(retries=100, retry_delay_ms=0.2))
        calls = 30
        for _ in range(calls):
            proxy.increment()
        assert counter.value == calls  # no duplicates, no losses
        assert world.faults.drops > 0  # ...even though legs were lost

    def test_announcements_are_fire_and_forget(self):
        from repro.runtime import World
        from tests.conftest import Echo
        world = World(seed=4, drop_probability=0.5)
        world.node("org", "s")
        world.node("org", "c")
        servers = world.capsule("s", "srv")
        clients = world.capsule("c", "cli")
        echo = Echo()
        proxy = world.binder_for(clients).bind(servers.export(echo))
        delivered = 0
        for i in range(40):
            proxy.fire(f"m{i}")
        world.settle()
        # Some were lost, none raised.
        assert world.faults.drops > 0


class TestCrashEdgeCases:
    def test_crashed_client_node_cannot_invoke(self, single_domain):
        world, domain, servers, clients = single_domain
        proxy = world.binder_for(clients).bind(servers.export(Counter()))
        proxy.increment()
        world.crash_node("client-node")
        with pytest.raises(NodeUnreachableError):
            proxy.increment()

    def test_crash_loses_volatile_state_unless_checkpointed(
            self, trio_domain):
        world, domain, (c1, c2, c3), clients = trio_domain
        plain_ref = c1.export(Account(100))
        world.crash_node("n1")
        from repro.errors import RecoveryError
        with pytest.raises(RecoveryError):
            domain.recovery.recover(plain_ref.interface_id, c2)

    def test_restart_brings_node_back_with_old_exports(
            self, single_domain):
        """A restarted node still holds its in-memory capsule state in
        this simulation (crash-stop without memory wipe models a
        network-partition-like outage); epoch checks keep refs valid."""
        world, domain, servers, clients = single_domain
        proxy = world.binder_for(clients).bind(servers.export(Counter()))
        proxy.increment()
        world.crash_node("server-node")
        with pytest.raises(NodeUnreachableError):
            proxy.increment()
        world.restart_node("server-node")
        assert proxy.increment() == 2
