"""Information-viewpoint schemas: entities and their invariants."""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.types.runtime import value_matches
from repro.types.terms import TypeTerm, parse_type

Invariant = Tuple[str, Callable[[Dict[str, Any]], bool]]


class EntityType:
    """A typed entity description with named invariants.

    Attributes are ADT type specs (same notation as operation params);
    invariants are named predicates over an attribute dict.
    """

    def __init__(self, name: str, attributes: Dict[str, Any],
                 invariants: Optional[List[Invariant]] = None) -> None:
        self.name = name
        self.attributes: Dict[str, TypeTerm] = {
            attr: parse_type(spec) for attr, spec in attributes.items()}
        self.invariants: List[Invariant] = list(invariants or [])

    def validate(self, values: Dict[str, Any]) -> List[str]:
        """All violations (empty list = valid)."""
        problems = []
        for attr, term in self.attributes.items():
            if attr not in values:
                problems.append(f"missing attribute {attr!r}")
            elif not value_matches(values[attr], term):
                problems.append(
                    f"attribute {attr!r}: {values[attr]!r} does not "
                    f"inhabit {term!r}")
        for attr in values:
            if attr not in self.attributes:
                problems.append(f"undeclared attribute {attr!r}")
        if not problems:
            for inv_name, predicate in self.invariants:
                try:
                    ok = predicate(values)
                except Exception as exc:  # noqa: BLE001
                    problems.append(
                        f"invariant {inv_name!r} raised {exc!r}")
                    continue
                if not ok:
                    problems.append(f"invariant {inv_name!r} violated")
        return problems


class InformationSchema:
    """A named collection of entity types."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.entities: Dict[str, EntityType] = {}

    def add_entity(self, entity: EntityType) -> EntityType:
        if entity.name in self.entities:
            raise ValueError(f"duplicate entity type {entity.name!r}")
        self.entities[entity.name] = entity
        return entity

    def entity(self, name: str) -> EntityType:
        try:
            return self.entities[name]
        except KeyError:
            raise KeyError(f"no entity type {name!r} in schema "
                           f"{self.name}") from None

    def validate(self, entity_name: str,
                 values: Dict[str, Any]) -> List[str]:
        return self.entity(entity_name).validate(values)
