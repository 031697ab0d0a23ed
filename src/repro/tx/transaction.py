"""Transactions and their coordinator.

A transaction gathers participants (the concurrency-control layers of the
interfaces it touched) as it runs, then decides its fate with a two-phase
commit.  Coordinator-to-participant messages travel over the simulated
network when the participant is remote, so commit latency and partition
sensitivity are real.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import (
    CommunicationError,
    InvalidTransactionState,
    TransactionAborted,
)


class TxState(enum.Enum):
    ACTIVE = "active"
    PREPARING = "preparing"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass(frozen=True)
class Participant:
    """One interface enlisted in a transaction."""

    node: str
    capsule: str
    interface_id: str
    layer: Any = field(compare=False, hash=False)


class Transaction:
    """A unit of atomic work spanning any number of interfaces."""

    def __init__(self, manager: "TransactionManager",
                 transaction_id: str) -> None:
        self.manager = manager
        self.transaction_id = transaction_id
        self.state = TxState.ACTIVE
        self.participants: List[Participant] = []
        self._participant_keys: set = set()
        #: Participants that could not be reached during the commit phase
        #: (they will learn the outcome on recovery).
        self.indoubt: List[Participant] = []
        self.abort_reason: Optional[str] = None

    # -- enlistment ------------------------------------------------------------

    def join(self, participant: Participant) -> None:
        key = (participant.node, participant.capsule,
               participant.interface_id)
        if key in self._participant_keys:
            return
        if self.state != TxState.ACTIVE:
            raise InvalidTransactionState(
                f"{self.transaction_id} is {self.state.value}; cannot join")
        self._participant_keys.add(key)
        self.participants.append(participant)

    # -- outcome ------------------------------------------------------------

    def commit(self) -> None:
        """Two-phase commit across all participants."""
        if self.state == TxState.ABORTED:
            raise TransactionAborted(
                f"{self.transaction_id} already aborted"
                + (f": {self.abort_reason}" if self.abort_reason else ""))
        if self.state != TxState.ACTIVE:
            raise InvalidTransactionState(
                f"cannot commit transaction in state {self.state.value}")
        self.state = TxState.PREPARING

        # Phase 1: gather votes.
        for participant in self.participants:
            try:
                ok, msg = self.manager.exchange(self, participant, "prepare")
            except CommunicationError as exc:
                ok, msg = False, f"unreachable during prepare: {exc}"
            if not ok:
                self._abort_enlisted(reason=msg)
                raise TransactionAborted(
                    f"{self.transaction_id} aborted in prepare: {msg}")

        # Phase 2: commit everywhere.
        self.state = TxState.COMMITTED
        for participant in self.participants:
            try:
                self.manager.exchange(self, participant, "commit")
            except CommunicationError:
                self.indoubt.append(participant)
        self.manager.finished(self)

    def abort(self, reason: str = "") -> None:
        if self.state == TxState.ABORTED:
            return
        if self.state == TxState.COMMITTED:
            raise InvalidTransactionState(
                f"{self.transaction_id} already committed; cannot abort")
        self._abort_enlisted(reason)

    def _abort_enlisted(self, reason: str = "") -> None:
        self.state = TxState.ABORTED
        self.abort_reason = reason or self.abort_reason
        for participant in self.participants:
            try:
                self.manager.exchange(self, participant, "abort")
            except CommunicationError:
                self.indoubt.append(participant)
        self.manager.finished(self)

    # -- context manager -----------------------------------------------------

    def __enter__(self) -> "Transaction":
        self.manager.push_current(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.manager.pop_current(self)
        if exc_type is None:
            self.commit()
            return False
        if self.state == TxState.ACTIVE or self.state == TxState.PREPARING:
            self.abort(reason=f"{exc_type.__name__}: {exc}")
        return False  # propagate the application exception


class TransactionManager:
    """Per-domain transaction coordinator.

    ``registry`` is shared federation-wide so server-side layers can find
    the transaction object for an incoming transaction id; 2PC control
    messages still cross the network for remote participants.
    """

    def __init__(self, domain_name: str,
                 registry: Optional[Dict[str, Transaction]] = None,
                 home_nucleus=None, nucleus_provider=None) -> None:
        self.domain_name = domain_name
        self.registry = registry if registry is not None else {}
        self.home_nucleus = home_nucleus
        #: Optional callable returning a live nucleus to coordinate from;
        #: lets the coordinator role survive the home node's crash.
        self.nucleus_provider = nucleus_provider
        self._counter = 0
        self._current_stack: List[Transaction] = []
        self.begun = 0
        self.committed = 0
        self.aborted = 0
        self.control_messages = 0

    # -- lifecycle --------------------------------------------------------------

    def begin(self) -> Transaction:
        self._counter += 1
        transaction = Transaction(
            self, f"tx.{self.domain_name}.{self._counter}")
        self.registry[transaction.transaction_id] = transaction
        self.begun += 1
        return transaction

    def finished(self, transaction: Transaction) -> None:
        if transaction.state == TxState.COMMITTED:
            self.committed += 1
        elif transaction.state == TxState.ABORTED:
            self.aborted += 1
        # Keep the registry entry: late participants must still see the
        # final state rather than "unknown transaction".

    # -- ambient transaction ----------------------------------------------------

    def push_current(self, transaction: Transaction) -> None:
        self._current_stack.append(transaction)

    def pop_current(self, transaction: Transaction) -> None:
        if self._current_stack and self._current_stack[-1] is transaction:
            self._current_stack.pop()

    def current(self) -> Optional[Transaction]:
        return self._current_stack[-1] if self._current_stack else None

    # -- participant exchange ---------------------------------------------------

    def exchange(self, transaction: Transaction, participant: Participant,
                 phase: str):
        """Send one 2PC control message, over the wire when remote."""
        self.control_messages += 1
        nucleus = None
        if self.nucleus_provider is not None:
            nucleus = self.nucleus_provider()
        if nucleus is None:
            nucleus = self.home_nucleus
        if nucleus is None or participant.node == nucleus.node_address:
            return participant.layer.txctl(phase, transaction.transaction_id)

        from repro.engine.remote import open_reply
        from repro.ndr.codec import Marshaller
        from repro.ndr.formats import get_format

        network = nucleus.network
        target_node = network.node(participant.node)
        wire = get_format(target_node.native_format)
        payload = wire.dumps({
            "capsule": participant.capsule,
            "txctl": {
                "tx": transaction.transaction_id,
                "phase": phase,
                "iface": participant.interface_id,
            },
        })
        reply_bytes = network.request(nucleus.node_address,
                                      participant.node, payload)
        # The server answers "stale" (capsule gone) or a format error
        # before it looks at ``txctl``: those surface as typed errors.
        reply = open_reply(wire, reply_bytes, "txr", Marshaller(),
                           participant.node)
        return reply["ok"], reply.get("msg", "")

    def resolve_indoubt(self, transaction: Transaction) -> int:
        """Re-deliver the outcome to participants missed by a partition.

        Returns how many in-doubt participants were resolved.  Call after
        connectivity heals; participants answer txctl at any later time.
        """
        phase = ("commit" if transaction.state == TxState.COMMITTED
                 else "abort")
        resolved = 0
        remaining = []
        for participant in transaction.indoubt:
            try:
                self.exchange(transaction, participant, phase)
                resolved += 1
            except CommunicationError:
                remaining.append(participant)
        transaction.indoubt = remaining
        return resolved

    # -- convenience --------------------------------------------------------------

    def atomically(self, body):
        """Run *body(tx)* in one transaction; returns body's result.

        Commits when *body* returns; aborts and re-raises when it raises,
        a held lock's :class:`~repro.errors.LockBusyError` included.  A
        synchronous call runs no other event, so an immediate retry would
        meet the same holder: waiting for a lock is the job of
        :class:`~repro.tx.runner.TxRunner`, whose scripts sleep while the
        holder's activity runs.
        """
        with self.begin() as tx:
            return body(tx)
