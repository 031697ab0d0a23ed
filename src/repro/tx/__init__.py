"""Concurrency transparency: transactions with the ACID properties.

Paper section 5.2 maps the four properties onto mechanism, and this package
builds exactly those mechanisms:

* **atomicity** — version store keeps before-images "until the overall fate
  of a transaction is decided"; two-phase commit decides it,
* **consistency** — ordering predicates describe "the permitted sequences
  of invocations within a transaction" (a small DFA per interface),
* **isolation** — separation constraints (read/write operation modes) are
  "interpreted to automatically generate a concurrency control manager",
* **durability** — a commit that wrote an interface which also selected
  failure transparency takes its checkpoint; writes inside a transaction
  are never logged, so recovery restores committed state only.

A waits-for-graph deadlock detector ensures "applications do not hang
indefinitely if transactions suffer locking conflicts".
"""

from repro.tx.locks import LockManager, LockMode
from repro.tx.deadlock import WaitsForGraph
from repro.tx.versions import VersionStore, take_snapshot, restore_snapshot
from repro.tx.ordering import OrderingPredicate
from repro.tx.transaction import Transaction, TransactionManager, TxState
from repro.tx.layer import ConcurrencyControlLayer
from repro.tx.runner import TxRunner, TxScript

__all__ = [
    "LockManager",
    "LockMode",
    "WaitsForGraph",
    "VersionStore",
    "take_snapshot",
    "restore_snapshot",
    "OrderingPredicate",
    "Transaction",
    "TransactionManager",
    "TxState",
    "ConcurrencyControlLayer",
    "TxRunner",
    "TxScript",
]
