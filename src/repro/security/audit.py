"""Audit trail for guard decisions.

The enterprise language (section 8) motivates auditing: "contractual
interactions should be subject to audit".  Guards append allow/deny records
here; management and the enterprise-modelling examples read them back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


@dataclass(frozen=True)
class AuditRecord:
    time: float
    domain: str
    interface_id: str
    operation: str
    principal: Optional[str]
    allowed: bool
    reason: str = ""


class AuditLog:
    """Append-only log of security decisions for one domain."""

    #: Records kept; the oldest goes first.
    capacity = 100_000

    def __init__(self, domain_name: str) -> None:
        self.domain_name = domain_name
        self._records: List[AuditRecord] = []

    def record(self, time: float, interface_id: str, operation: str,
               principal: Optional[str], allowed: bool,
               reason: str = "") -> None:
        if len(self._records) >= self.capacity:
            self._records.pop(0)
        self._records.append(AuditRecord(
            time, self.domain_name, interface_id, operation, principal,
            allowed, reason))

    def records(self, principal: Optional[str] = None,
                allowed: Optional[bool] = None) -> List[AuditRecord]:
        found = self._records
        if principal is not None:
            found = [r for r in found if r.principal == principal]
        if allowed is not None:
            found = [r for r in found if r.allowed == allowed]
        return list(found)

    def denials(self) -> List[AuditRecord]:
        return self.records(allowed=False)

    def __len__(self) -> int:
        return len(self._records)
