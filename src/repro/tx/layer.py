"""The generated concurrency control manager.

Section 5.2: "Separation constraints can be interpreted to automatically
generate a concurrency control manager which governs access to the ADT
interface being made atomic."  The transparency compiler creates one
:class:`ConcurrencyControlLayer` per exported interface that selected
concurrency transparency; it owns that interface's lock manager and version
store, consults the federation-wide deadlock detector, and answers 2PC
control messages.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.comp.invocation import Invocation
from repro.comp.outcomes import Termination
from repro.engine.layers import ServerLayer
from repro.errors import (
    DeadlockError,
    InvalidTransactionState,
    LockBusyError,
)
from repro.tx.deadlock import WaitsForGraph
from repro.tx.locks import LockManager, LockMode
from repro.tx.ordering import OrderingPredicate
from repro.tx.transaction import Participant, TxState
from repro.tx.versions import VersionStore


class ConcurrencyControlLayer(ServerLayer):
    """Per-interface locking, versioning and 2PC participation."""

    name = "concurrency"

    def __init__(self, interface, capsule,
                 registry: Dict[str, Any],
                 graph: WaitsForGraph,
                 ordering: Optional[OrderingPredicate] = None,
                 durability_hook=None) -> None:
        self.interface = interface
        self.capsule = capsule
        self.registry = registry
        self.graph = graph
        self.ordering = ordering
        #: Called with no arguments when a transaction that wrote here
        #: commits: the failure transparency's checkpoint, when selected.
        self.durability_hook = durability_hook
        self.locks = LockManager(interface.interface_id)
        self.versions = VersionStore(interface.interface_id)
        self._ordering_state: Dict[str, str] = {}
        self._auto_counter = 0
        self.transactional_ops = 0
        self.autocommit_ops = 0
        self.deadlocks = 0
        self.busy_rejections = 0

    # -- participant identity -----------------------------------------------------

    def participant(self) -> Participant:
        return Participant(
            node=self.capsule.nucleus.node_address,
            capsule=self.capsule.name,
            interface_id=self.interface.interface_id,
            layer=self)

    # -- invocation path --------------------------------------------------------

    #: Virtual-ms charged per lock-table interaction.
    LOCK_COST_MS = 0.03

    def handle(self, invocation: Invocation, interface,
               next_layer) -> Termination:
        self.capsule.nucleus.network.scheduler.clock.advance(
            self.LOCK_COST_MS)
        op = interface.signature.operations.get(invocation.operation)
        mode = (LockMode.READ if op is not None and op.readonly
                else LockMode.WRITE)
        tx_id = invocation.context.transaction_id
        if tx_id is None:
            return self._autocommit(invocation, mode, next_layer)
        return self._transactional(invocation, tx_id, mode, next_layer)

    def _autocommit(self, invocation: Invocation, mode: LockMode,
                    next_layer) -> Termination:
        """A naked invocation is its own tiny transaction."""
        self._auto_counter += 1
        auto_id = f"auto.{self.interface.interface_id}.{self._auto_counter}"
        blocking = self.locks.try_acquire(auto_id, mode)
        if blocking:
            self.busy_rejections += 1
            raise LockBusyError(
                f"{invocation.operation}: interface busy "
                f"(held by {sorted(blocking)})")
        try:
            self.autocommit_ops += 1
            return next_layer(invocation)
        finally:
            self.locks.release(auto_id)

    def _transactional(self, invocation: Invocation, tx_id: str,
                       mode: LockMode, next_layer) -> Termination:
        transaction = self.registry.get(tx_id)
        if transaction is None:
            raise InvalidTransactionState(
                f"unknown transaction {tx_id!r}")
        if transaction.state != TxState.ACTIVE:
            raise InvalidTransactionState(
                f"transaction {tx_id} is {transaction.state.value}")

        blocking = self.locks.try_acquire(tx_id, mode)
        if blocking:
            cycle = self.graph.would_deadlock(tx_id, blocking)
            if cycle is not None:
                self.deadlocks += 1
                self.graph.clear_waiter(tx_id)
                raise DeadlockError(
                    f"deadlock detected: {' -> '.join(cycle)}; "
                    f"{tx_id} chosen as victim")
            self.graph.add_waits(tx_id, blocking)
            self.busy_rejections += 1
            raise LockBusyError(
                f"{invocation.operation}: waiting for {sorted(blocking)}")
        self.graph.clear_waiter(tx_id)

        transaction.join(self.participant())

        if self.ordering is not None:
            state = self._ordering_state.get(tx_id, self.ordering.start)
            # step() raises OrderingViolation on an illegal sequence.
            self._ordering_state[tx_id] = self.ordering.step(
                state, invocation.operation)

        if mode == LockMode.WRITE:
            self.versions.save_before_image(
                tx_id, self.interface.implementation)

        self.transactional_ops += 1
        return next_layer(invocation)

    # -- 2PC participant protocol --------------------------------------------------

    def txctl(self, phase: str, tx_id: str) -> Tuple[bool, str]:
        if phase == "prepare":
            return self._prepare(tx_id)
        if phase == "commit":
            return self._commit(tx_id)
        if phase == "abort":
            return self._abort(tx_id)
        return False, f"unknown txctl phase {phase!r}"

    def _prepare(self, tx_id: str) -> Tuple[bool, str]:
        if self.interface.implementation is None:
            return False, f"interface {self.interface.interface_id} gone"
        if self.ordering is not None:
            state = self._ordering_state.get(tx_id, self.ordering.start)
            if not self.ordering.may_commit(state):
                return False, (f"ordering predicate not satisfied "
                               f"(state {state!r})")
        return True, "prepared"

    def _commit(self, tx_id: str) -> Tuple[bool, str]:
        if self.durability_hook is not None and \
                self.versions.has_version(tx_id):
            self.durability_hook()
        self.versions.discard(tx_id)
        self.locks.release(tx_id)
        self._ordering_state.pop(tx_id, None)
        self.graph.remove_transaction(tx_id)
        return True, "committed"

    def _abort(self, tx_id: str) -> Tuple[bool, str]:
        if self.interface.implementation is not None:
            self.versions.restore(tx_id, self.interface.implementation)
        else:
            self.versions.discard(tx_id)
        self.locks.release(tx_id)
        self._ordering_state.pop(tx_id, None)
        self.graph.remove_transaction(tx_id)
        return True, "aborted"
