"""The type manager.

"Trading is intimately concerned with type-checking: a trader needs access
to descriptions of the types of the services it offers ... The type
manager can impose additional constraints on type matching beyond those
implied by the type system" (section 6).  It stores named service types
and optional extra matching rules (predicates over provided/required
signatures); together with the traders it makes the system self-describing.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.errors import TypeCheckError
from repro.types.conformance import signature_conforms
from repro.types.signature import InterfaceSignature

MatchRule = Callable[[InterfaceSignature, InterfaceSignature], bool]


class TypeManager:
    """Named service types plus extra conformance rules."""

    def __init__(self, domain_name: str) -> None:
        self.domain_name = domain_name
        self._types: Dict[str, InterfaceSignature] = {}
        self._rules: List[Tuple[str, MatchRule]] = []

    # -- the type repository -----------------------------------------------------

    def register(self, name: str, signature: InterfaceSignature) -> None:
        existing = self._types.get(name)
        if existing is not None and existing != signature:
            raise TypeCheckError(
                f"type name {name!r} already registered with a different "
                f"signature")
        self._types[name] = signature

    def get(self, name: str) -> InterfaceSignature:
        try:
            return self._types[name]
        except KeyError:
            raise TypeCheckError(
                f"type manager({self.domain_name}) has no type "
                f"{name!r}") from None

    def known_types(self) -> List[str]:
        return sorted(self._types)

    # -- matching ------------------------------------------------------------------

    def add_rule(self, name: str, rule: MatchRule) -> None:
        """Impose an additional constraint on every type match."""
        self._rules.append((name, rule))

    def conforms(self, provided: InterfaceSignature,
                 required: InterfaceSignature) -> bool:
        """Structural conformance plus all registered extra rules."""
        if not signature_conforms(provided, required):
            return False
        return all(rule(provided, required) for _, rule in self._rules)

    def resolve_requirement(self, requirement) -> InterfaceSignature:
        """Accept a signature or a registered type name."""
        if isinstance(requirement, InterfaceSignature):
            return requirement
        if isinstance(requirement, str):
            return self.get(requirement)
        raise TypeCheckError(
            f"cannot interpret service-type requirement {requirement!r}")
