"""The lease authority: grants, write versions and invalidation fan-out.

One per domain (``domain.leases``, created lazily).  The authority is
the control plane of client-side caching:

* **Registration.**  Registering an interface here with a TTL is what
  promotes it to cached mode, and nothing demotes it; unregistered
  interfaces are invisible to every
  :class:`~repro.lease.cache.LeaseClient`, so default runs never touch
  this module.

* **Grants.**  A client that fills its cache acquires a per-interface
  lease: a plain expiry on the shared virtual clock.  Acquiring again
  (any cache miss against the same authority) *renews* the grant — and
  every successful contact also delivers the invalidations the holder
  missed, which is what makes the staleness bound work when the
  asynchronous fan-out below is lossy.

* **Invalidation fan-out.**  ``note_write`` is called at every write
  commit point (the group member layer's quorum commit, the bottom of
  the server dispatch stack for singletons and shards).  It bumps the
  per-(interface, tag) version, records a *pending* invalidation per
  live holder, and posts a one-way network message to each — posts are
  real :meth:`~repro.net.network.Network.post` traffic, so chaos drops
  them like anything else.  A lost post is repaired at the holder's
  next contact (the pending record); a holder that never contacts again
  self-fences when its grant expires.  Either way no cache serves a
  superseded value for longer than the TTL after the write committed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.errors import BindingError, NodeUnreachableError

#: Virtual-ms charged per authority contact (grant, renewal, drain) —
#: the same control-plane discipline as the group registry.
CONTROL_COST_MS = 0.2

#: Network message kind of the one-way invalidation fan-out.
INVAL_KIND = "lease-inval"

#: Wildcard tag: "drop every entry of this interface" (revocation,
#: shard drain).  A flush with interface ``*`` drops all.
FLUSH_TAG = "*"


class LeaseAuthority:
    """Per-domain lease registry, version ledger and invalidator."""

    #: A registration's TTL when it names none (the leases mode resets it).
    default_ttl_ms = 2000.0

    def __init__(self, domain) -> None:
        self.domain = domain
        self._home: Optional[str] = None
        #: interface_id -> lease TTL in virtual ms.
        self.registered: Dict[str, float] = {}
        #: (interface_id, tag) -> committed write version.
        self.versions: Dict[Tuple[str, str], int] = {}
        #: interface_id -> holder node -> grant expiry (virtual ms).
        self.grants: Dict[str, Dict[str, float]] = {}
        #: holder node -> invalidations not yet known delivered; drained
        #: (re-delivered) at the holder's next successful contact.
        self.pending: Dict[str, Set[Tuple[str, str]]] = {}
        #: holder node -> attached LeaseClient (one per node).
        self.clients: Dict[str, "LeaseClient"] = {}
        self.grants_issued = 0
        self.renewals = 0
        self.contacts = 0
        self.contact_failures = 0
        self.invalidations_noted = 0
        self.invalidations_posted = 0
        #: Always 0 here; only the check harness's ``leaseinval`` fault
        #: model counts.  Reported because ``report()`` is hashed into
        #: the pinned leases-mode run digests.
        self.invalidations_skipped = 0
        self.pending_delivered = 0
        self.revocations = 0
        self.drains = 0

    # -- plumbing ------------------------------------------------------------

    @property
    def clock(self):
        return self.domain.scheduler.clock

    def home_node(self) -> str:
        """The node the authority answers from (the domain gateway)."""
        if self._home is None:
            self._home = self.domain.gateway()[0]
        return self._home

    # -- registration --------------------------------------------------------

    def register(self, interface_id: str,
                 ttl_ms: Optional[float] = None) -> None:
        """Promote *interface_id* to cached mode."""
        self.registered[interface_id] = (ttl_ms if ttl_ms is not None
                                         else self.default_ttl_ms)

    def covers(self, interface_id: str) -> bool:
        return interface_id in self.registered

    def attach_client(self, nucleus) -> "LeaseClient":
        """The (single) caching client of *nucleus*'s node."""
        from repro.lease.cache import LeaseClient

        holder = nucleus.node_address
        client = self.clients.get(holder)
        if client is None:
            client = LeaseClient(self, nucleus)
            self.clients[holder] = client
            nucleus.lease_client = client
        return client

    # -- the control plane ---------------------------------------------------

    def contact(self, holder: str) -> List[Tuple[str, str]]:
        """One holder<->authority round trip; delivers missed
        invalidations.  Raises when the holder cannot reach the
        authority's home node — a partitioned holder cannot renew, so
        its grant runs out and it fences itself."""
        home = self.home_node()
        faults = self.domain.network.faults
        self.clock.advance(CONTROL_COST_MS)
        self.contacts += 1
        if (faults.is_crashed(home) or faults.is_crashed(holder)
                or faults.link_blocked(holder, home)
                or faults.link_blocked(home, holder)):
            self.contact_failures += 1
            raise NodeUnreachableError(
                f"lease authority on {home} unreachable from {holder}")
        delivered = sorted(self.pending.pop(holder, ()))
        self.pending_delivered += len(delivered)
        return delivered

    def acquire(self, holder: str, interface_id: str
                ) -> Tuple[float, List[Tuple[str, str]]]:
        """Grant (or renew) *holder*'s lease on *interface_id*.

        Returns ``(expiry, delivered)`` where *delivered* is every
        pending invalidation repaired by this contact — the caller must
        apply them, and must not fill an entry whose tag is among them
        (its just-fetched value may predate those writes).
        """
        if interface_id not in self.registered:
            raise BindingError(
                f"interface {interface_id!r} is not in cached mode")
        delivered = self.contact(holder)
        now = self.clock.now
        held = self.grants.setdefault(interface_id, {})
        if held.get(holder, 0.0) > now:
            self.renewals += 1
        else:
            self.grants_issued += 1
        expiry = now + self.registered[interface_id]
        held[holder] = expiry
        return expiry, delivered

    # -- the write path ------------------------------------------------------

    def note_write(self, interface_id: str, tag: str,
                   source: Optional[str] = None) -> None:
        """A write to (*interface_id*, *tag*) committed: bump the
        version and fan invalidations out to every live holder."""
        if interface_id not in self.registered:
            return
        key = (interface_id, tag)
        self.versions[key] = self.versions.get(key, 0) + 1
        self.invalidations_noted += 1
        now = self.clock.now
        held = self.grants.get(interface_id)
        if not held:
            return
        origin = source or self.home_node()
        for holder in sorted(held):
            if held[holder] <= now:
                continue  # grant lapsed: the holder fenced itself
            self.pending.setdefault(holder, set()).add(key)
            self._post(origin, holder, interface_id, tag)

    def _post(self, origin: str, holder: str, interface_id: str,
              tag: str) -> None:
        self.domain.network.post(
            origin, holder, f"{interface_id}|{tag}".encode("utf-8"),
            kind=INVAL_KIND,
            headers={"iid": interface_id, "tag": tag})
        self.invalidations_posted += 1

    # -- revocation ----------------------------------------------------------

    def holders(self) -> List[str]:
        """Every node currently holding at least one unexpired grant."""
        now = self.clock.now
        alive = {holder
                 for held in self.grants.values()
                 for holder, expiry in held.items() if expiry > now}
        return sorted(alive)

    def revoke_holder(self, holder: str) -> int:
        """Drop every grant of a holder declared dead.

        The holder cannot be told (it is unreachable by assumption); it
        fences itself when its grants expire on its own clock.  The
        flush-all pending marker makes its *first contact after coming
        back* drop everything and refetch, so a revived node never
        resumes serving from a pre-crash cache.
        """
        revoked = 0
        for interface_id in sorted(self.grants):
            if self.grants[interface_id].pop(holder, None) is not None:
                revoked += 1
        if revoked:
            self.revocations += revoked
            self.pending.setdefault(holder, set()).add(
                (FLUSH_TAG, FLUSH_TAG))
        return revoked

    def drain_interface(self, interface_id: str) -> float:
        """Revoke every grant on one interface (shard cutover).

        Posts a flush to each holder and returns the longest remaining
        grant validity in virtual ms: the caller must wait that grace
        window out before completing the cutover, so a holder whose
        flush was lost has self-fenced by the time ownership moves.
        """
        now = self.clock.now
        held = self.grants.pop(interface_id, {})
        origin = self.home_node()
        remaining = 0.0
        for holder in sorted(held):
            expiry = held[holder]
            if expiry <= now:
                continue
            remaining = max(remaining, expiry - now)
            self.revocations += 1
            self.pending.setdefault(holder, set()).add(
                (interface_id, FLUSH_TAG))
            self._post(origin, holder, interface_id, FLUSH_TAG)
        self.drains += 1
        return remaining

    # -- placement visibility ------------------------------------------------

    def node_lease_load(self, capsule) -> int:
        """Unexpired grants outstanding against *capsule*'s interfaces.

        Placement (``repro.mgmt.placement.placement_candidates``)
        counts this as load: a node whose interfaces serve many cached
        readers is a worse home for yet another object than its
        invocation counters alone suggest — every write it hosts fans
        out to those holders.
        """
        now = self.clock.now
        total = 0
        for interface_id in capsule.interfaces:
            held = self.grants.get(interface_id)
            if held:
                total += sum(1 for expiry in held.values()
                             if expiry > now)
        return total

    # -- reporting -----------------------------------------------------------

    def report(self) -> Dict:
        now = self.clock.now
        live = {iid: sum(1 for expiry in held.values() if expiry > now)
                for iid, held in sorted(self.grants.items())}
        return {
            "registered": sorted(self.registered),
            "live_grants": {iid: count for iid, count in live.items()
                            if count},
            "grants_issued": self.grants_issued,
            "renewals": self.renewals,
            "contacts": self.contacts,
            "contact_failures": self.contact_failures,
            "invalidations_noted": self.invalidations_noted,
            "invalidations_posted": self.invalidations_posted,
            "invalidations_skipped": self.invalidations_skipped,
            "pending_delivered": self.pending_delivered,
            "revocations": self.revocations,
            "drains": self.drains,
        }
