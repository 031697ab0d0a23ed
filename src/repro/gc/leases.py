"""Reference leases.

A lease is a time-bounded claim by a holder (a client capsule) on an
exported interface.  Binding grants one; every invocation renews it.  An
interface with no unexpired leases is unreferenced as far as the collector
can prove, which is what makes distributed collection safe without a
global reference census.
"""

from __future__ import annotations

from typing import Dict, Set


class LeaseTable:
    """interface_id -> {holder -> expiry time}."""

    #: A lease's life when the grant names none (the tuner may reset it).
    default_ttl_ms = 10_000.0

    def __init__(self) -> None:
        self._leases: Dict[str, Dict[str, float]] = {}
        self.grants = 0
        self.renewals = 0

    def grant(self, interface_id: str, holder: str, now: float,
              ttl_ms: float = None) -> None:
        ttl = ttl_ms if ttl_ms is not None else self.default_ttl_ms
        holders = self._leases.setdefault(interface_id, {})
        if holder in holders:
            self.renewals += 1
        else:
            self.grants += 1
        holders[holder] = now + ttl

    def renew(self, interface_id: str, holder: str, now: float,
              ttl_ms: float = None) -> None:
        if interface_id in self._leases and \
                holder in self._leases[interface_id]:
            ttl = ttl_ms if ttl_ms is not None else self.default_ttl_ms
            self._leases[interface_id][holder] = now + ttl
            self.renewals += 1

    def live_holders(self, interface_id: str, now: float) -> Set[str]:
        holders = self._leases.get(interface_id, {})
        return {h for h, expiry in holders.items() if expiry > now}

    def has_live_lease(self, interface_id: str, now: float) -> bool:
        return bool(self.live_holders(interface_id, now))

    def prune(self, now: float) -> int:
        """Drop expired leases; returns how many were dropped."""
        dropped = 0
        for interface_id in list(self._leases):
            holders = self._leases[interface_id]
            for holder in list(holders):
                if holders[holder] <= now:
                    del holders[holder]
                    dropped += 1
            if not holders:
                del self._leases[interface_id]
        return dropped

    def forget(self, interface_id: str) -> None:
        self._leases.pop(interface_id, None)
