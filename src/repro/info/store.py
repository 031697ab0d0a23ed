"""Per-domain information stores with version vectors.

Each federated party keeps its own copy of shared information; updates
bump the party's own component of the entity's version vector.  Vectors
are what make "multiple versions of the same information held by
different parties" comparable: one copy may dominate another (safe to
overwrite) or the two may be concurrent (a real conflict needing policy).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.info.schema import InformationSchema


@dataclass
class EntityRecord:
    """One entity copy held by one party."""

    entity_id: str
    entity_type: str
    values: Dict[str, Any]
    #: domain name -> update count by that domain.
    vector: Dict[str, int] = field(default_factory=dict)

    def clone(self) -> "EntityRecord":
        return EntityRecord(self.entity_id, self.entity_type,
                            copy.deepcopy(self.values), dict(self.vector))


class InfoStore:
    """One party's copies of shared information."""

    def __init__(self, domain_name: str,
                 schema: Optional[InformationSchema] = None) -> None:
        self.domain_name = domain_name
        self.schema = schema
        self._records: Dict[str, EntityRecord] = {}
        self.updates = 0

    def create(self, entity_id: str, entity_type: str,
               values: Dict[str, Any]) -> EntityRecord:
        if entity_id in self._records:
            raise ValueError(f"entity {entity_id!r} already exists in "
                             f"{self.domain_name}")
        self._validate(entity_type, values)
        record = EntityRecord(entity_id, entity_type,
                              copy.deepcopy(values),
                              {self.domain_name: 1})
        self._records[entity_id] = record
        self.updates += 1
        return record

    def update(self, entity_id: str, **changes) -> EntityRecord:
        record = self.get(entity_id)
        merged = dict(record.values, **changes)
        self._validate(record.entity_type, merged)
        record.values = merged
        record.vector[self.domain_name] = \
            record.vector.get(self.domain_name, 0) + 1
        self.updates += 1
        return record

    def get(self, entity_id: str) -> EntityRecord:
        try:
            return self._records[entity_id]
        except KeyError:
            raise KeyError(
                f"store({self.domain_name}) has no entity "
                f"{entity_id!r}") from None

    def entity_ids(self) -> List[str]:
        return sorted(self._records)

    def accept(self, record: EntityRecord) -> None:
        """Install a copy received from another party (vector included)."""
        self._validate(record.entity_type, record.values)
        self._records[record.entity_id] = record.clone()

    def _validate(self, entity_type: str, values: Dict[str, Any]) -> None:
        if self.schema is None:
            return
        problems = self.schema.validate(entity_type, values)
        if problems:
            raise ValueError(
                f"invalid {entity_type} in {self.domain_name}: "
                + "; ".join(problems))
