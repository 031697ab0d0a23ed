"""The version store.

Atomicity "can be achieved by ... retaining of versions of object state
until the overall fate of a transaction is decided" (section 5.2).  Before
a transaction's first state-changing operation on an interface, the layer
saves a before-image here; abort restores it, commit discards it.
"""

from __future__ import annotations

import copy
from typing import Any, Dict


def take_snapshot(implementation: Any) -> Dict[str, Any]:
    """Deep-copy the externally relevant state of an implementation."""
    snapshot_method = getattr(implementation, "odp_snapshot", None)
    if callable(snapshot_method):
        return copy.deepcopy(snapshot_method())
    return copy.deepcopy({k: v for k, v in vars(implementation).items()
                          if not k.startswith("_")})


def restore_snapshot(implementation: Any, snapshot: Dict[str, Any]) -> None:
    restore_method = getattr(implementation, "odp_restore", None)
    if callable(restore_method):
        restore_method(copy.deepcopy(snapshot))
        return
    for key, value in copy.deepcopy(snapshot).items():
        setattr(implementation, key, value)


class VersionStore:
    """Before-images for one interface, keyed by transaction id."""

    def __init__(self, interface_id: str) -> None:
        self.interface_id = interface_id
        self._before: Dict[str, Dict[str, Any]] = {}
        self.saves = 0
        self.restores = 0

    def has_version(self, tx_id: str) -> bool:
        return tx_id in self._before

    def save_before_image(self, tx_id: str, implementation: Any) -> None:
        """Idempotent per transaction: only the first write snapshots."""
        if tx_id in self._before:
            return
        self._before[tx_id] = take_snapshot(implementation)
        self.saves += 1

    def restore(self, tx_id: str, implementation: Any) -> bool:
        """Roll back to the before-image; True when there was one."""
        snapshot = self._before.pop(tx_id, None)
        if snapshot is None:
            return False
        restore_snapshot(implementation, snapshot)
        self.restores += 1
        return True

    def discard(self, tx_id: str) -> None:
        self._before.pop(tx_id, None)

    def pending(self) -> int:
        return len(self._before)
