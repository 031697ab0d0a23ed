"""Per-interface lock manager.

Strict two-phase locking: locks are acquired as operations arrive and
released only when the transaction commits or aborts.  Read (shared) and
write (exclusive) modes come from the separation constraints declared on
operations (``@operation(readonly=True)``).
"""

from __future__ import annotations

import enum
from typing import Dict, Set


class LockMode(enum.Enum):
    READ = "read"
    WRITE = "write"


def compatible(held: LockMode, wanted: LockMode) -> bool:
    return held == LockMode.READ and wanted == LockMode.READ


class LockManager:
    """Lock table for a single interface."""

    def __init__(self, interface_id: str) -> None:
        self.interface_id = interface_id
        self._holders: Dict[str, LockMode] = {}
        self.grants = 0
        self.upgrades = 0

    def conflicts_with(self, tx_id: str, wanted: LockMode) -> Set[str]:
        """Transactions whose held locks block *tx_id* acquiring *wanted*."""
        blocking: Set[str] = set()
        for holder, mode in self._holders.items():
            if holder == tx_id:
                continue
            if not compatible(mode, wanted):
                blocking.add(holder)
        return blocking

    def try_acquire(self, tx_id: str, wanted: LockMode) -> Set[str]:
        """Grant the lock if possible.

        Returns the empty set on success, or the set of blocking
        transaction ids on conflict (the caller decides whether that means
        waiting, busy-retry or deadlock).
        """
        held = self._holders.get(tx_id)
        if held == LockMode.WRITE or held == wanted:
            return set()  # already sufficient
        blocking = self.conflicts_with(tx_id, wanted)
        if blocking:
            return blocking
        if held == LockMode.READ and wanted == LockMode.WRITE:
            self.upgrades += 1
        self._holders[tx_id] = wanted
        self.grants += 1
        return set()

    def release(self, tx_id: str) -> None:
        self._holders.pop(tx_id, None)
