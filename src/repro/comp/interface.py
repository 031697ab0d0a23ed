"""Runtime interface records.

An :class:`Interface` is the server-side binding between an exported ADT
implementation and its signature.  Its lifecycle states carry the paper's
resource-transparency story: ACTIVE (in memory), PASSIVE (moved to the
stable repository, section 5.5), and CLOSED (explicitly withdrawn, the
garbage-collection escape hatch of section 7.3).
"""

from __future__ import annotations

import enum
from typing import Any

from repro.errors import InterfaceClosedError
from repro.types.signature import InterfaceSignature


class InterfaceState(enum.Enum):
    ACTIVE = "active"
    PASSIVE = "passive"
    CLOSED = "closed"


class Interface:
    """One exported interface of an object within a capsule."""

    def __init__(self, interface_id: str, signature: InterfaceSignature,
                 implementation: Any, capsule_name: str,
                 epoch: int = 0) -> None:
        self.interface_id = interface_id
        self.signature = signature
        self.implementation = implementation
        self.capsule_name = capsule_name
        #: Incremented every time the interface changes location or is
        #: re-activated — lets stale references be detected cheaply.
        self.epoch = epoch
        self.state = InterfaceState.ACTIVE
        #: Arbitrary per-interface engineering annotations (guards, locks,
        #: transparency layers attach themselves here).
        self.annotations: dict = {}
        self.invocations_served = 0

    @property
    def active(self) -> bool:
        return self.state == InterfaceState.ACTIVE

    def require_usable(self) -> None:
        if self.state == InterfaceState.CLOSED:
            raise InterfaceClosedError(
                f"interface {self.interface_id} is closed")

    def close(self) -> None:
        """Explicitly withdraw the interface (section 7.3)."""
        self.state = InterfaceState.CLOSED
        self.implementation = None

    def passivate(self) -> None:
        self.state = InterfaceState.PASSIVE
        self.implementation = None

    def reactivate(self, implementation: Any) -> None:
        if self.state == InterfaceState.CLOSED:
            raise InterfaceClosedError(
                f"cannot reactivate closed interface {self.interface_id}")
        self.implementation = implementation
        self.state = InterfaceState.ACTIVE
        self.epoch += 1
