"""Federation links: the contracts between autonomous domains.

A link is directional (A may export to B without the reverse) and carries
the administrative agreement: which principals may cross, how their names
map into the target domain, and which operations the boundary permits.
Section 4.2: "At the boundaries between organizations there will
necessarily be gateways to enforce the security and accounting policies of
each organization and oversee the interactions between them."
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

from repro.errors import FederationError


class FederationLink:
    """One direction of an inter-domain contract."""

    def __init__(self, source: str, target: str,
                 allowed_principals: Optional[Iterable[str]] = None,
                 principal_map: Optional[Dict[str, str]] = None,
                 denied_operations: Optional[Iterable[str]] = None) -> None:
        self.source = source
        self.target = target
        #: None means any principal may cross; otherwise an allow-list.
        self.allowed_principals: Optional[Set[str]] = (
            set(allowed_principals) if allowed_principals is not None
            else None)
        #: Maps source-domain principal names to target-domain names.
        self.principal_map: Dict[str, str] = dict(principal_map or {})
        self.denied_operations: Set[str] = set(denied_operations or ())
        self.rejections = 0
        #: Accounting: (principal, operation) -> crossings, booked once
        #: per crossing by the receiving gateway.  Gateways "enforce the
        #: security and accounting policies of each organization"
        #: (section 4.2); this is the accounting half.
        self.ledger: Dict[tuple, int] = {}

    def account(self, principal: Optional[str], operation: str) -> None:
        key = (principal or "<anonymous>", operation)
        self.ledger[key] = self.ledger.get(key, 0) + 1

    def usage_by_principal(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for (principal, _), count in self.ledger.items():
            totals[principal] = totals.get(principal, 0) + count
        return totals

    def check_egress(self, principal: Optional[str],
                     operation: str) -> None:
        """Enforced in the source domain before the message leaves."""
        if operation in self.denied_operations:
            self.rejections += 1
            raise FederationError(
                f"link {self.source}->{self.target} denies operation "
                f"{operation!r}")
        if self.allowed_principals is not None and \
                (principal is None
                 or principal not in self.allowed_principals):
            self.rejections += 1
            raise FederationError(
                f"link {self.source}->{self.target} does not admit "
                f"principal {principal!r}")

    def map_principal(self, principal: Optional[str]) -> Optional[str]:
        """Translate a crossing principal into the target's namespace."""
        if principal is None:
            return None
        return self.principal_map.get(principal, principal)

    def __repr__(self) -> str:
        return f"FederationLink({self.source}->{self.target})"
