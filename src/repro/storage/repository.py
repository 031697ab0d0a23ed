"""The stable object repository.

A domain-level store that survives node crashes (stable storage is assumed
more resilient than any single node, as the paper's durability discussion
requires).  It holds passivated objects, checkpoints and interaction logs.
Read/write costs are charged to the virtual clock so resource and failure
transparency have measurable price tags.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.errors import StorageError


@dataclass
class StoredObject:
    """One stored snapshot of an object's state."""

    key: str
    cls: type
    snapshot: Dict[str, Any]
    signature: Any = None
    constraints: Any = None
    epoch: int = 0
    stored_at: float = 0.0
    kind: str = "passive"  # "passive" | "checkpoint"


class StableRepository:
    """Keyed snapshot + log storage for one domain."""

    #: Virtual time one stable write, and one read, costs.
    write_ms = 0.5
    read_ms = 0.2

    def __init__(self, domain_name: str, clock=None) -> None:
        self.domain_name = domain_name
        self.clock = clock
        self._objects: Dict[str, StoredObject] = {}
        self._logs: Dict[str, List[Any]] = {}

    def _charge(self, cost: float) -> None:
        if self.clock is not None:
            self.clock.advance(cost)

    # -- snapshots -------------------------------------------------------------

    def store(self, record: StoredObject) -> None:
        self._charge(self.write_ms)
        stored = StoredObject(
            key=record.key, cls=record.cls,
            snapshot=copy.deepcopy(record.snapshot),
            signature=record.signature, constraints=record.constraints,
            epoch=record.epoch,
            stored_at=(self.clock.now if self.clock else 0.0),
            kind=record.kind)
        self._objects[record.key] = stored

    def fetch(self, key: str) -> StoredObject:
        self._charge(self.read_ms)
        record = self._objects.get(key)
        if record is None:
            raise StorageError(
                f"repository({self.domain_name}) has no object {key!r}")
        return StoredObject(
            key=record.key, cls=record.cls,
            snapshot=copy.deepcopy(record.snapshot),
            signature=record.signature, constraints=record.constraints,
            epoch=record.epoch, stored_at=record.stored_at,
            kind=record.kind)

    def contains(self, key: str) -> bool:
        return key in self._objects

    def delete(self, key: str) -> None:
        self._objects.pop(key, None)
        self._logs.pop(key, None)

    def keys(self, kind: Optional[str] = None) -> List[str]:
        if kind is None:
            return sorted(self._objects)
        return sorted(k for k, v in self._objects.items() if v.kind == kind)

    # -- interaction logs (failure transparency) ---------------------------------

    def append_log(self, key: str, entry: Any) -> None:
        self._charge(self.write_ms)
        self._logs.setdefault(key, []).append(copy.deepcopy(entry))

    def read_log(self, key: str) -> List[Any]:
        self._charge(self.read_ms)
        return copy.deepcopy(self._logs.get(key, []))

    def truncate_log(self, key: str) -> None:
        self._charge(self.write_ms)
        self._logs[key] = []

    def log_length(self, key: str) -> int:
        return len(self._logs.get(key, []))
