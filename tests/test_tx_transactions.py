"""Integration tests for transactions: ACID across the simulated network."""

import pytest

from repro import EnvironmentConstraints, Signal
from repro.errors import (
    DeadlockError,
    InvalidTransactionState,
    LockBusyError,
    OrderingViolation,
    TransactionAborted,
)
from repro.tx.ordering import OrderingPredicate
from repro.tx.transaction import TxState
from tests.conftest import Account

TX = EnvironmentConstraints(concurrency=True)


def exported_account(world, capsule, clients, balance=100,
                     constraints=TX):
    ref = capsule.export(Account(balance), constraints=constraints)
    return world.binder_for(clients).bind(ref)


class TestCommitAbort:
    def test_commit_applies_effects(self, single_domain):
        world, domain, servers, clients = single_domain
        account = exported_account(world, servers, clients)
        with domain.tx_manager.begin():
            account.deposit(10)
            account.withdraw(5)
        assert account.balance_of() == 105
        assert domain.tx_manager.committed == 1

    def test_abort_rolls_back(self, single_domain):
        world, domain, servers, clients = single_domain
        account = exported_account(world, servers, clients)
        tx = domain.tx_manager.begin()
        with pytest.raises(RuntimeError):
            with tx:
                account.deposit(10)
                raise RuntimeError("application failure")
        assert tx.state == TxState.ABORTED
        assert account.balance_of() == 100

    def test_explicit_abort(self, single_domain):
        world, domain, servers, clients = single_domain
        account = exported_account(world, servers, clients)
        tx = domain.tx_manager.begin()
        domain.tx_manager.push_current(tx)
        account.deposit(50)
        domain.tx_manager.pop_current(tx)
        tx.abort("changed my mind")
        assert account.balance_of() == 100

    def test_atomicity_across_two_interfaces(self, trio_domain):
        """All-or-nothing across objects on different nodes."""
        world, domain, (c1, c2, c3), clients = trio_domain
        source = exported_account(world, c1, clients, 100)
        target = exported_account(world, c2, clients, 0)
        tx = domain.tx_manager.begin()
        with pytest.raises(Signal):
            with tx:
                source.withdraw(60)
                target.deposit(60)
                source.withdraw(60)  # overdrawn -> Signal -> abort
        assert source.balance_of() == 100
        assert target.balance_of() == 0

    def test_successful_transfer_across_nodes(self, trio_domain):
        world, domain, (c1, c2, c3), clients = trio_domain
        source = exported_account(world, c1, clients, 100)
        target = exported_account(world, c2, clients, 0)
        with domain.tx_manager.begin():
            source.withdraw(60)
            target.deposit(60)
        assert source.balance_of() == 40
        assert target.balance_of() == 60

    def test_commit_sends_2pc_messages(self, trio_domain):
        world, domain, (c1, c2, c3), clients = trio_domain
        source = exported_account(world, c1, clients, 100)
        target = exported_account(world, c2, clients, 0)
        before = world.network.total_messages
        with domain.tx_manager.begin():
            source.withdraw(1)
            target.deposit(1)
        messages = world.network.total_messages - before
        # 4 data exchanges (2 ops * req+reply) plus prepare+commit round
        # trips to the participant remote from the coordinator node (the
        # co-located participant is exchanged with directly).
        assert messages >= 4 + 4

    def test_reuse_of_finished_transaction_rejected(self, single_domain):
        world, domain, servers, clients = single_domain
        account = exported_account(world, servers, clients)
        tx = domain.tx_manager.begin()
        with tx:
            account.deposit(1)
        with pytest.raises(InvalidTransactionState):
            tx.commit()
        with pytest.raises(InvalidTransactionState):
            tx.abort()

    def test_operations_under_finished_tx_rejected(self, single_domain):
        world, domain, servers, clients = single_domain
        account = exported_account(world, servers, clients)
        tx = domain.tx_manager.begin()
        with tx:
            account.deposit(1)
        domain.tx_manager.push_current(tx)
        try:
            with pytest.raises(InvalidTransactionState):
                account.deposit(1)
        finally:
            domain.tx_manager.pop_current(tx)


class TestIsolation:
    def test_write_lock_blocks_second_transaction(self, single_domain):
        world, domain, servers, clients = single_domain
        account = exported_account(world, servers, clients)
        t1 = domain.tx_manager.begin()
        t2 = domain.tx_manager.begin()
        domain.tx_manager.push_current(t1)
        account.deposit(10)
        domain.tx_manager.pop_current(t1)

        domain.tx_manager.push_current(t2)
        with pytest.raises(LockBusyError):
            account.deposit(5)
        domain.tx_manager.pop_current(t2)

        t1.commit()
        # After t1 releases, t2 proceeds.
        domain.tx_manager.push_current(t2)
        account.deposit(5)
        domain.tx_manager.pop_current(t2)
        t2.commit()
        assert account.balance_of() == 115

    def test_readers_share(self, single_domain):
        world, domain, servers, clients = single_domain
        account = exported_account(world, servers, clients)
        t1 = domain.tx_manager.begin()
        t2 = domain.tx_manager.begin()
        for tx in (t1, t2):
            domain.tx_manager.push_current(tx)
            assert account.balance_of() == 100
            domain.tx_manager.pop_current(tx)
        t1.commit()
        t2.commit()

    def test_uncommitted_writes_invisible_after_abort(self, single_domain):
        world, domain, servers, clients = single_domain
        account = exported_account(world, servers, clients)
        tx = domain.tx_manager.begin()
        domain.tx_manager.push_current(tx)
        account.deposit(1000)
        domain.tx_manager.pop_current(tx)
        tx.abort()
        assert account.balance_of() == 100

    def test_autocommit_blocked_by_transaction_lock(self, single_domain):
        world, domain, servers, clients = single_domain
        account = exported_account(world, servers, clients)
        tx = domain.tx_manager.begin()
        domain.tx_manager.push_current(tx)
        account.deposit(1)
        domain.tx_manager.pop_current(tx)
        with pytest.raises(LockBusyError):
            account.deposit(1)  # naked op vs held write lock
        tx.commit()
        assert account.deposit(1) == 102


class TestDeadlock:
    def test_two_party_deadlock_detected(self, trio_domain):
        world, domain, (c1, c2, c3), clients = trio_domain
        a = exported_account(world, c1, clients, 100)
        b = exported_account(world, c2, clients, 100)
        manager = domain.tx_manager
        t1, t2 = manager.begin(), manager.begin()

        manager.push_current(t1)
        a.deposit(1)
        manager.pop_current(t1)
        manager.push_current(t2)
        b.deposit(1)
        manager.pop_current(t2)

        # t1 waits for b (held by t2)...
        manager.push_current(t1)
        with pytest.raises(LockBusyError):
            b.deposit(1)
        manager.pop_current(t1)
        # ... and t2 requesting a closes the cycle.
        manager.push_current(t2)
        with pytest.raises(DeadlockError):
            a.deposit(1)
        manager.pop_current(t2)

        t2.abort("victim")
        # t1 can now finish.
        manager.push_current(t1)
        b.deposit(1)
        manager.pop_current(t1)
        t1.commit()
        assert a.balance_of() == 101
        assert b.balance_of() == 101


class TestOrdering:
    def test_ordering_predicate_enforced(self, single_domain):
        world, domain, servers, clients = single_domain
        constraints = EnvironmentConstraints(
            concurrency=True,
            ordering=OrderingPredicate.sequence("deposit", "withdraw"))
        account = exported_account(world, servers, clients,
                                   constraints=constraints)
        # withdraw before deposit violates the predicate
        tx = domain.tx_manager.begin()
        domain.tx_manager.push_current(tx)
        with pytest.raises(OrderingViolation):
            account.withdraw(1)
        domain.tx_manager.pop_current(tx)
        tx.abort()

    def test_incomplete_sequence_fails_prepare(self, single_domain):
        world, domain, servers, clients = single_domain
        constraints = EnvironmentConstraints(
            concurrency=True,
            ordering=OrderingPredicate.sequence("deposit", "withdraw"))
        account = exported_account(world, servers, clients,
                                   constraints=constraints)
        tx = domain.tx_manager.begin()
        with pytest.raises(TransactionAborted, match="ordering"):
            with tx:
                account.deposit(5)  # never withdraws: not accepting
        assert account.balance_of() == 100

    def test_complete_sequence_commits(self, single_domain):
        world, domain, servers, clients = single_domain
        constraints = EnvironmentConstraints(
            concurrency=True,
            ordering=OrderingPredicate.sequence("deposit", "withdraw"))
        account = exported_account(world, servers, clients,
                                   constraints=constraints)
        with domain.tx_manager.begin():
            account.deposit(5)
            account.withdraw(3)
        assert account.balance_of() == 102


class TestAtomically:
    def test_atomically_retries_conflicts(self, single_domain):
        world, domain, servers, clients = single_domain
        account = exported_account(world, servers, clients)

        def body(tx):
            return account.deposit(1)

        assert domain.tx_manager.atomically(body) == 101

    def test_held_lock_raises_after_one_abort(self, single_domain):
        """A synchronous call runs no other event, so retrying at once
        would meet the same holder: one attempt, aborted, and the lock
        error surfaces with no transaction left current."""
        world, domain, servers, clients = single_domain
        account = exported_account(world, servers, clients)
        manager = domain.tx_manager
        blocker = manager.begin()
        manager.push_current(blocker)
        account.deposit(1)
        manager.pop_current(blocker)
        begun, aborted = manager.begun, manager.aborted
        with pytest.raises(LockBusyError):
            manager.atomically(lambda tx: account.deposit(1))
        assert (manager.begun, manager.aborted) == (begun + 1, aborted + 1)
        assert manager.current() is None
        blocker.abort()


class TestDurability:
    def test_commit_writes_durable_snapshot(self, single_domain):
        world, domain, servers, clients = single_domain
        from repro import FailureSpec
        constraints = EnvironmentConstraints(
            concurrency=True, failure=FailureSpec(checkpoint_every=100))
        account = exported_account(world, servers, clients,
                                   constraints=constraints)
        ref_id = account._ref.interface_id
        with domain.tx_manager.begin():
            account.deposit(23)
        # The commit is the checkpoint: snapshot taken, log empty.
        record = domain.repository.fetch(f"ckpt:{ref_id}")
        assert record.snapshot["balance"] == 123
        assert domain.repository.log_length(f"wal:{ref_id}") == 0
