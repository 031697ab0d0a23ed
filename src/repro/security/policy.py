"""Declarative security policies.

A policy maps operations to the principals allowed to invoke them.  Guards
are *generated* from these declarations (section 7.1: "another example of
the kind of engineering detail which can be generated automatically from a
declarative statement of security policy").
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

#: Wildcards accepted in policy declarations.
ANY_OP = "*"
ANY_PRINCIPAL = "*"


class SecurityPolicy:
    """Operation -> allowed principals, with wildcard support."""

    def __init__(self, name: str,
                 rules: Optional[Dict[str, Iterable[str]]] = None,
                 default_allow: bool = False) -> None:
        self.name = name
        self.default_allow = default_allow
        self._rules: Dict[str, Set[str]] = {
            op: set(principals) for op, principals in (rules or {}).items()
        }

    def allow(self, operation: str, principal: str) -> None:
        self._rules.setdefault(operation, set()).add(principal)

    def permits(self, operation: str, principal: Optional[str]) -> bool:
        """Does the policy let *principal* invoke *operation*?"""
        for key in (operation, ANY_OP):
            allowed = self._rules.get(key)
            if allowed is not None:
                return (ANY_PRINCIPAL in allowed
                        or (principal is not None and principal in allowed))
        return self.default_allow


class PolicyStore:
    """Per-domain registry of named policies."""

    def __init__(self) -> None:
        self._policies: Dict[str, SecurityPolicy] = {}
        # The built-in default policy denies everything except what a
        # deployment explicitly allows.
        self.register(SecurityPolicy("default", default_allow=False))
        self.register(SecurityPolicy("open", default_allow=True))

    def register(self, policy: SecurityPolicy) -> SecurityPolicy:
        self._policies[policy.name] = policy
        return policy

    def get(self, name: str) -> SecurityPolicy:
        try:
            return self._policies[name]
        except KeyError:
            raise KeyError(f"no security policy named {name!r}") from None
