"""Service offers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.comp.reference import InterfaceRef
from repro.types.signature import InterfaceSignature


@dataclass
class ServiceOffer:
    """One exported service description held by a trader.

    ``resource_hook`` realises the paper's link between trading and
    resource management: "it may be useful to activate a passive object if
    one of its interfaces has been imported by a client ... it must be
    possible to link offers to a resource manager which can take whatever
    actions are required when the offer is selected" (section 6).  The
    hook runs when the offer is selected and may return a replacement
    (fresher) reference.
    """

    offer_id: str
    service_type: str
    signature: InterfaceSignature
    ref: InterfaceRef
    properties: Dict[str, Any] = field(default_factory=dict)
    resource_hook: Optional[Callable[["ServiceOffer"], InterfaceRef]] = None
    withdrawn: bool = False

    def select(self) -> InterfaceRef:
        """Mark the offer selected, running the resource-manager hook."""
        if self.resource_hook is not None:
            replacement = self.resource_hook(self)
            if replacement is not None:
                self.ref = replacement
        return self.ref

    def __repr__(self) -> str:
        return (f"ServiceOffer({self.offer_id}, type={self.service_type!r}, "
                f"{len(self.properties)} properties)")
