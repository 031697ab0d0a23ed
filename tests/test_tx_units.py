"""Unit tests for the transaction building blocks: locks, deadlock graph,
version store, ordering predicates."""

import pytest

from repro.errors import OrderingViolation
from repro.tx.deadlock import WaitsForGraph
from repro.tx.locks import LockManager, LockMode
from repro.tx.ordering import OrderingPredicate
from repro.tx.versions import VersionStore, restore_snapshot, take_snapshot


class TestLockManager:
    def test_read_locks_share(self):
        locks = LockManager("i")
        assert locks.try_acquire("t1", LockMode.READ) == set()
        assert locks.try_acquire("t2", LockMode.READ) == set()

    def test_write_excludes_everything(self):
        locks = LockManager("i")
        locks.try_acquire("t1", LockMode.WRITE)
        assert locks.try_acquire("t2", LockMode.READ) == {"t1"}
        assert locks.try_acquire("t2", LockMode.WRITE) == {"t1"}

    def test_read_blocks_write(self):
        locks = LockManager("i")
        locks.try_acquire("t1", LockMode.READ)
        assert locks.try_acquire("t2", LockMode.WRITE) == {"t1"}

    def test_reacquire_is_idempotent(self):
        locks = LockManager("i")
        locks.try_acquire("t1", LockMode.WRITE)
        assert locks.try_acquire("t1", LockMode.WRITE) == set()
        assert locks.try_acquire("t1", LockMode.READ) == set()

    def test_upgrade_when_sole_reader(self):
        locks = LockManager("i")
        locks.try_acquire("t1", LockMode.READ)
        assert locks.try_acquire("t1", LockMode.WRITE) == set()
        assert locks.upgrades == 1

    def test_upgrade_blocked_by_other_reader(self):
        locks = LockManager("i")
        locks.try_acquire("t1", LockMode.READ)
        locks.try_acquire("t2", LockMode.READ)
        assert locks.try_acquire("t1", LockMode.WRITE) == {"t2"}

    def test_release_frees_the_lock(self):
        locks = LockManager("i")
        locks.try_acquire("t1", LockMode.WRITE)
        locks.release("t1")
        assert locks.try_acquire("t2", LockMode.WRITE) == set()


class TestWaitsForGraph:
    def test_no_cycle_for_simple_wait(self):
        graph = WaitsForGraph()
        assert graph.would_deadlock("a", {"b"}) is None

    def test_two_party_cycle(self):
        graph = WaitsForGraph()
        graph.add_waits("b", {"a"})
        cycle = graph.would_deadlock("a", {"b"})
        assert cycle is not None
        assert cycle[0] == "a"

    def test_three_party_cycle(self):
        graph = WaitsForGraph()
        graph.add_waits("b", {"c"})
        graph.add_waits("c", {"a"})
        assert graph.would_deadlock("a", {"b"}) is not None

    def test_chain_without_cycle(self):
        graph = WaitsForGraph()
        graph.add_waits("b", {"c"})
        assert graph.would_deadlock("a", {"b"}) is None

    def test_finished_transaction_breaks_cycles(self):
        graph = WaitsForGraph()
        graph.add_waits("b", {"a"})
        graph.remove_transaction("b")
        assert graph.would_deadlock("a", {"b"}) is None

    def test_clear_waiter_removes_outgoing_only(self):
        graph = WaitsForGraph()
        graph.add_waits("a", {"b"})
        graph.add_waits("b", {"c"})
        graph.clear_waiter("a")
        assert graph.would_deadlock("b", {"a"}) is None
        assert graph.would_deadlock("c", {"b"}) is not None

    def test_self_edges_ignored(self):
        graph = WaitsForGraph()
        graph.add_waits("a", {"a"})
        assert graph.would_deadlock("a", {"a"}) is None


class Bag:
    def __init__(self):
        self.items = []
        self._hidden = "not state"


class TestVersionStore:
    def test_before_image_is_first_write_only(self):
        store = VersionStore("i")
        bag = Bag()
        store.save_before_image("t1", bag)
        bag.items.append(1)
        store.save_before_image("t1", bag)  # must not overwrite
        bag.items.append(2)
        assert store.restore("t1", bag)
        assert bag.items == []

    def test_restore_without_version_is_noop(self):
        store = VersionStore("i")
        bag = Bag()
        bag.items.append(1)
        assert not store.restore("t1", bag)
        assert bag.items == [1]

    def test_discard(self):
        store = VersionStore("i")
        bag = Bag()
        store.save_before_image("t1", bag)
        store.discard("t1")
        assert not store.has_version("t1")

    def test_snapshot_is_deep(self):
        bag = Bag()
        bag.items.append([1])
        snapshot = take_snapshot(bag)
        bag.items[0].append(2)
        fresh = Bag()
        restore_snapshot(fresh, snapshot)
        assert fresh.items == [[1]]

    def test_snapshot_skips_private(self):
        assert "_hidden" not in take_snapshot(Bag())

    def test_isolation_between_transactions(self):
        store = VersionStore("i")
        bag = Bag()
        store.save_before_image("t1", bag)
        bag.items.append("t1-change")
        store.save_before_image("t2", bag)
        store.restore("t2", bag)
        assert bag.items == ["t1-change"]
        store.restore("t1", bag)
        assert bag.items == []


class TestOrderingPredicate:
    def test_sequence_enforced(self):
        dfa = OrderingPredicate.sequence("open", "write", "close")
        state = dfa.start
        state = dfa.step(state, "open")
        state = dfa.step(state, "write")
        state = dfa.step(state, "close")
        assert dfa.may_commit(state)

    def test_wrong_order_rejected(self):
        dfa = OrderingPredicate.sequence("open", "write", "close")
        with pytest.raises(OrderingViolation):
            dfa.step(dfa.start, "write")

    def test_incomplete_sequence_cannot_commit(self):
        dfa = OrderingPredicate.sequence("open", "close")
        state = dfa.step(dfa.start, "open")
        assert not dfa.may_commit(state)

    def test_wildcard_self_loop(self):
        dfa = OrderingPredicate(
            {"s0": {"open": "s1"},
             "s1": {"close": "s2", "*": "s1"},
             "s2": {}},
            "s0", accepting=["s2"])
        state = dfa.step(dfa.start, "open")
        state = dfa.step(state, "anything")
        state = dfa.step(state, "whatever")
        state = dfa.step(state, "close")
        assert dfa.may_commit(state)

    def test_bad_start_state_rejected(self):
        with pytest.raises(ValueError):
            OrderingPredicate({"s0": {}}, "missing")
