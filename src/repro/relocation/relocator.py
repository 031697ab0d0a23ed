"""The relocation service.

A per-domain registry mapping interface identity to its *current* reference
(access paths + epoch).  Only changes are registered: exports create an
entry, and migration / passivation / recovery update it.  Lookups are how
clients holding stale references find servers again.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.comp.reference import InterfaceRef
from repro.errors import StaleReferenceError


class Relocator:
    """Registry of current interface locations for one domain."""

    def __init__(self, domain_name: str) -> None:
        self.domain_name = domain_name
        self._entries: Dict[str, InterfaceRef] = {}
        self.registrations = 0
        self.updates = 0
        self.lookups = 0
        self.misses = 0
        #: Bindings the domain's relocation layers repaired, by source:
        #: a forwarding hint, or a lookup here.
        self.stale_hints = 0
        self.chases = 0

    def register(self, ref: InterfaceRef) -> None:
        """Record a newly exported interface.

        Re-exporting a known identity (migration, recovery) is a *change
        of location* and is recorded as an update.
        """
        if ref.interface_id in self._entries:
            self.update(ref)
            return
        self._entries[ref.interface_id] = ref
        self.registrations += 1

    def update(self, ref: InterfaceRef) -> None:
        """Record a *change* of location (migration, recovery, etc.).

        The new reference must carry a strictly newer epoch than the entry
        it replaces, so late updates cannot regress the registry.
        """
        current = self._entries.get(ref.interface_id)
        if current is not None and ref.epoch <= current.epoch:
            return  # stale update; registration of changes only, in order
        self._entries[ref.interface_id] = ref
        self.updates += 1

    def unregister(self, interface_id: str) -> None:
        self._entries.pop(interface_id, None)

    def lookup(self, interface_id: str) -> InterfaceRef:
        """Find the current reference; raises when identity is unknown."""
        self.lookups += 1
        ref = self._entries.get(interface_id)
        if ref is None:
            self.misses += 1
            raise StaleReferenceError(
                f"relocator({self.domain_name}) knows nothing about "
                f"{interface_id}")
        return ref

    def try_lookup(self, interface_id: str) -> Optional[InterfaceRef]:
        """A probe that is no binding's repair (the explorer, the
        supervisor, recovery, a gateway's freshness check): the current
        reference or ``None``, counted nowhere."""
        return self._entries.get(interface_id)

    def known(self) -> int:
        return len(self._entries)
