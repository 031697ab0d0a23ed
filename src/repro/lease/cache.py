"""The client side of lease-based caching.

One :class:`LeaseClient` per node (shared by every channel the node's
capsules open).  The engine consults it on the read path — before path
selection, before the network — and serves registered read-only
interrogations straight from memory while the node's lease grant is
valid.  Entries are keyed by ``(interface_id, operation, args)``;
invalidations address them by *tag* (the operation's first argument,
the same routing-key convention the shard router uses).

Validity is purely local: an entry is served only while the holder's
grant on its interface is unexpired on the shared virtual clock.  No
message is needed to *deny* a read — a partitioned client simply fails
to renew and starts missing, which is the fencing property the C24
benchmark relies on, and the check harness's ``linearizable`` oracle
judges: each read a lease may serve returns the state at some instant
at most the TTL before it.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.comp.outcomes import Termination
from repro.errors import CommunicationError
from repro.lease.authority import FLUSH_TAG, INVAL_KIND, LeaseAuthority


def tag_of(args: Tuple) -> str:
    """The invalidation tag of an invocation: its routing key."""
    return str(args[0]) if args else ""


class LeaseClient:
    """Per-node cache of lease-covered read results."""

    def __init__(self, authority: LeaseAuthority, nucleus) -> None:
        self.authority = authority
        self.nucleus = nucleus
        self.holder = nucleus.node_address
        self.clock = authority.domain.scheduler.clock
        #: (interface_id, operation, args) -> cached Termination.
        self.entries: Dict[Tuple[str, str, Tuple], Termination] = {}
        #: interface_id -> grant expiry (virtual ms); entries under an
        #: expired grant are unusable even though they are still held.
        self.grant_expiry: Dict[str, float] = {}
        self.enabled = True
        #: Virtual cost of serving a hit (a local lookup, not a network
        #: exchange) — nonzero so cached reads stay on the clock and
        #: derived throughput comparisons have a denominator.
        self.serve_cost_ms = 0.001
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.skipped_fills = 0
        self.expired = 0
        self.invalidations = 0
        self.flushes = 0
        self.acquire_failures = 0
        self.renewals_skipped = 0
        nucleus.node.on_deliver(INVAL_KIND, self._on_invalidation)

    # -- the read path -------------------------------------------------------

    def _covered(self, ref, operation: str) -> bool:
        if not self.enabled or not self.authority.covers(ref.interface_id):
            return False
        spec = ref.signature.operations.get(operation)
        return spec is not None and spec.readonly

    def lookup(self, ref, operation: str,
               args: Tuple) -> Optional[Termination]:
        """Serve from cache, or ``None`` to send the read for real."""
        if not self._covered(ref, operation):
            return None
        interface_id = ref.interface_id
        key = (interface_id, operation, tuple(args))
        entry = self.entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        expiry = self.grant_expiry.get(interface_id, 0.0)
        if self.clock.now >= expiry:
            # The grant ran out (no renewal landed — partitioned, or
            # just idle): self-fence instead of serving possibly-stale
            # state beyond the bound.
            del self.entries[key]
            self.expired += 1
            self.misses += 1
            return None
        ttl = self.authority.registered.get(
            interface_id, self.authority.default_ttl_ms)
        if expiry - self.clock.now <= ttl * 0.5 and \
                not self.nucleus.retry_budgets.can_spend(
                    self.authority.home_node(), "lease"):
            # Proactive renewal is *optional* work: when the path to
            # the authority is already in retry debt (budget dry) the
            # renewal is skipped rather than piled on — the unrenewed
            # grant still bounds staleness, and expiry fences us.
            self.renewals_skipped += 1
        elif expiry - self.clock.now <= ttl * 0.5:
            # Past the grant's half-life: renew proactively, so a busy
            # reader keeps an unbroken lease instead of lapsing and
            # refetching.  Every renewal contact also delivers the
            # invalidations whose posts were lost — the repair channel
            # that keeps lossy fan-out inside the staleness bound.
            try:
                new_expiry, delivered = self.authority.acquire(
                    self.holder, interface_id)
            except CommunicationError:
                # Authority unreachable: keep serving — the unrenewed
                # grant still bounds staleness, and expiry fences us.
                self.acquire_failures += 1
            else:
                self.grant_expiry[interface_id] = new_expiry
                self._apply(delivered)
                entry = self.entries.get(key)
                if entry is None:
                    # The renewal just invalidated this very entry.
                    self.misses += 1
                    return None
        self.hits += 1
        if self.serve_cost_ms:
            self.clock.advance(self.serve_cost_ms)
        return entry

    def store(self, ref, operation: str, args: Tuple,
              termination: Termination) -> None:
        """A real read completed: fill the cache under a fresh grant."""
        if not self._covered(ref, operation):
            return
        interface_id = ref.interface_id
        if not termination.ok:
            return  # signals are outcomes, not cacheable state
        try:
            expiry, delivered = self.authority.acquire(
                self.holder, interface_id)
        except CommunicationError:
            # Cannot reach the authority: the value is still good for
            # the caller, but without a grant it must not be cached.
            self.acquire_failures += 1
            return
        if self.clock.now >= self.grant_expiry.get(interface_id, 0.0):
            # The previous grant lapsed before this contact (or never
            # existed): the authority stopped recording invalidations
            # for us the moment it expired, so everything cached under
            # it may silently miss writes from the gap.  This acquire
            # is a *fresh* lease, not a renewal — drop the old entries.
            for key in [k for k in self.entries
                        if k[0] == interface_id]:
                del self.entries[key]
                self.expired += 1
        self.grant_expiry[interface_id] = expiry
        tag = tag_of(args)
        stale = any(
            pair == (FLUSH_TAG, FLUSH_TAG)
            or (pair[0] == interface_id and pair[1] in (tag, FLUSH_TAG))
            for pair in delivered)
        self._apply(delivered)
        if stale:
            # A write to this very tag committed between our fetch and
            # this contact: the fetched value may already be superseded.
            self.skipped_fills += 1
            return
        self.entries[(interface_id, operation, tuple(args))] = termination
        self.fills += 1

    # -- invalidation --------------------------------------------------------

    def _on_invalidation(self, message) -> None:
        self.apply_invalidation(message.headers.get("iid", FLUSH_TAG),
                                message.headers.get("tag", FLUSH_TAG))

    def _apply(self, delivered) -> None:
        for interface_id, tag in delivered:
            self.apply_invalidation(interface_id, tag)

    def apply_invalidation(self, interface_id: str, tag: str) -> None:
        self.invalidations += 1
        if interface_id == FLUSH_TAG:
            self.entries.clear()
            self.grant_expiry.clear()
            self.flushes += 1
            return
        if tag == FLUSH_TAG:
            for key in [k for k in self.entries
                        if k[0] == interface_id]:
                del self.entries[key]
            # A whole-interface flush is a revocation: drop the grant
            # too, so nothing can be served until a fresh acquire.
            self.grant_expiry.pop(interface_id, None)
            self.flushes += 1
            return
        for key in [k for k in self.entries
                    if k[0] == interface_id and tag_of(k[2]) == tag]:
            del self.entries[key]

    # -- reporting ----------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "fills": self.fills,
            "skipped_fills": self.skipped_fills,
            "expired": self.expired,
            "invalidations": self.invalidations,
            "flushes": self.flushes,
            "acquire_failures": self.acquire_failures,
            "renewals_skipped": self.renewals_skipped,
            "entries": len(self.entries),
        }
