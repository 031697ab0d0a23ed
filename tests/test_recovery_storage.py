"""Tests for the stable repository and failure transparency."""

import pytest

from repro import EnvironmentConstraints, FailureSpec
from repro.errors import RecoveryError, StorageError
from repro.recovery.checkpoint import checkpoint_key
from repro.storage.repository import StableRepository, StoredObject
from tests.conftest import Account

FAIL3 = EnvironmentConstraints(failure=FailureSpec(checkpoint_every=3))


class TestRepository:
    def test_store_and_fetch_are_deep_copies(self):
        repo = StableRepository("d")
        state = {"items": [1, 2]}
        repo.store(StoredObject("k", dict, state))
        state["items"].append(3)
        fetched = repo.fetch("k")
        assert fetched.snapshot == {"items": [1, 2]}
        fetched.snapshot["items"].append(99)
        assert repo.fetch("k").snapshot == {"items": [1, 2]}

    def test_missing_key(self):
        with pytest.raises(StorageError):
            StableRepository("d").fetch("ghost")

    def test_delete(self):
        repo = StableRepository("d")
        repo.store(StoredObject("k", dict, {}))
        repo.delete("k")
        assert not repo.contains("k")

    def test_keys_filtered_by_kind(self):
        repo = StableRepository("d")
        repo.store(StoredObject("a", dict, {}, kind="passive"))
        repo.store(StoredObject("b", dict, {}, kind="checkpoint"))
        assert repo.keys() == ["a", "b"]
        assert repo.keys(kind="checkpoint") == ["b"]

    def test_log_append_read_truncate(self):
        repo = StableRepository("d")
        repo.append_log("wal", {"op": "f"})
        repo.append_log("wal", {"op": "g"})
        assert [e["op"] for e in repo.read_log("wal")] == ["f", "g"]
        assert repo.log_length("wal") == 2
        repo.truncate_log("wal")
        assert repo.read_log("wal") == []

    def test_log_entries_deep_copied(self):
        repo = StableRepository("d")
        entry = {"args": [1]}
        repo.append_log("wal", entry)
        entry["args"].append(2)
        assert repo.read_log("wal") == [{"args": [1]}]

    def test_storage_costs_charged_to_clock(self):
        from repro.sim.clock import VirtualClock
        clock = VirtualClock()
        repo = StableRepository("d", clock=clock)
        repo.store(StoredObject("k", dict, {}))
        assert clock.now == repo.write_ms
        repo.fetch("k")
        assert clock.now == pytest.approx(repo.write_ms + repo.read_ms)


class TestCheckpointing:
    def test_birth_checkpoint_taken(self, single_domain):
        world, domain, servers, clients = single_domain
        ref = servers.export(Account(50), constraints=FAIL3)
        assert domain.repository.contains(f"ckpt:{ref.interface_id}")
        record = domain.repository.fetch(f"ckpt:{ref.interface_id}")
        assert record.snapshot["balance"] == 50

    def test_checkpoint_cadence(self, single_domain):
        world, domain, servers, clients = single_domain
        ref = servers.export(Account(0), constraints=FAIL3)
        proxy = world.binder_for(clients).bind(ref)
        interface = servers.interfaces[ref.interface_id]
        layer = interface.annotations["checkpoint_layer"]
        for _ in range(7):
            proxy.deposit(10)
        # birth + after op 3 + after op 6
        assert layer.checkpoints_taken == 3
        assert domain.repository.log_length(
            f"wal:{ref.interface_id}") == 1  # op 7 only

    def test_reads_not_logged(self, single_domain):
        world, domain, servers, clients = single_domain
        ref = servers.export(Account(0), constraints=FAIL3)
        proxy = world.binder_for(clients).bind(ref)
        for _ in range(5):
            proxy.balance_of()
        assert domain.repository.log_length(f"wal:{ref.interface_id}") == 0


class TestRecovery:
    def test_recovery_restores_exact_state(self, trio_domain):
        world, domain, (c1, c2, c3), clients = trio_domain
        ref = c1.export(Account(0), constraints=FAIL3)
        proxy = world.binder_for(clients).bind(ref)
        for amount in (10, 20, 30, 40, 50):
            proxy.deposit(amount)
        world.crash_node("n1")
        new_ref = domain.recovery.recover(ref.interface_id, c2)
        assert new_ref.epoch > ref.epoch
        # Old proxy transparently follows the recovery.
        assert proxy.balance_of() == 150

    def test_replay_reproduces_post_checkpoint_ops(self, trio_domain):
        world, domain, (c1, c2, c3), clients = trio_domain
        ref = c1.export(Account(0), constraints=FAIL3)
        proxy = world.binder_for(clients).bind(ref)
        for _ in range(4):  # checkpoint at 3, log holds 1
            proxy.deposit(5)
        world.crash_node("n1")
        domain.recovery.recover(ref.interface_id, c2)
        assert domain.recovery.replayed_entries == 1
        assert proxy.balance_of() == 20

    def test_signal_outcomes_replay_harmlessly(self, trio_domain):
        world, domain, (c1, c2, c3), clients = trio_domain
        ref = c1.export(Account(10),
                        constraints=EnvironmentConstraints(
                            failure=FailureSpec(checkpoint_every=100)))
        proxy = world.binder_for(clients).bind(ref)
        proxy.deposit(5)
        from repro import Signal
        with pytest.raises(Signal):
            proxy.withdraw(1000)  # overdrawn, logged, replays as Signal
        proxy.deposit(5)
        world.crash_node("n1")
        domain.recovery.recover(ref.interface_id, c2)
        assert proxy.balance_of() == 20

    def test_aborted_write_is_not_replayed(self, trio_domain):
        """A write inside a transaction is not logged before its outcome
        is known, so recovery cannot bring back one that was aborted."""
        world, domain, (c1, c2, c3), clients = trio_domain
        ref = c1.export(Account(100),
                        constraints=EnvironmentConstraints(
                            concurrency=True,
                            failure=FailureSpec(checkpoint_every=4)))
        proxy = world.binder_for(clients).bind(ref)
        proxy.deposit(1)
        tx = domain.tx_manager.begin()
        with pytest.raises(RuntimeError):
            with tx:
                proxy.deposit(5)
                raise RuntimeError("abandon the transaction")
        assert proxy.balance_of() == 101
        world.crash_node("n1")
        domain.recovery.recover(ref.interface_id, c2)
        assert proxy.balance_of() == 101

    def test_unrecoverable_without_checkpoint(self, trio_domain):
        world, domain, (c1, c2, c3), clients = trio_domain
        ref = c1.export(Account(5))  # no failure transparency selected
        with pytest.raises(RecoveryError):
            domain.recovery.recover(ref.interface_id, c2)
        assert not domain.repository.contains(
            checkpoint_key(ref.interface_id))

    def test_recovering_a_reachable_object_is_refused(self, trio_domain):
        """Recovery must not fork a live object (split brain)."""
        world, domain, (c1, c2, c3), clients = trio_domain
        ref = c1.export(Account(5), constraints=FAIL3)
        world.crash_node("n1")
        domain.recovery.recover(ref.interface_id, c2)
        # The recovered incarnation on n2 is alive and reachable:
        # recovering again (anywhere) must be refused.
        with pytest.raises(RecoveryError, match="still reachable"):
            domain.recovery.recover(ref.interface_id, c3)
        with pytest.raises(RecoveryError, match="still reachable"):
            domain.recovery.recover(ref.interface_id, c2)

    def test_recovery_continues_accepting_writes(self, trio_domain):
        world, domain, (c1, c2, c3), clients = trio_domain
        ref = c1.export(Account(100), constraints=FAIL3)
        proxy = world.binder_for(clients).bind(ref)
        proxy.deposit(11)
        world.crash_node("n1")
        domain.recovery.recover(ref.interface_id, c2)
        proxy.deposit(11)
        assert proxy.balance_of() == 122
        # And the recovered instance checkpoints too.
        assert domain.repository.contains(
            checkpoint_key(ref.interface_id))
