"""Server-side reply deduplication: exactly-once retransmission.

The duplicate-execution hazard (section 4.1's unmaskable-failure
discussion made concrete): a client that retransmits after losing the
*reply* leg of an interrogation re-delivers a request the server
already executed.  Without memory, the server executes it again —
at-least-once semantics, silently wrong for non-idempotent operations.

The :class:`ReplyCache` is that memory.  Every invocation carries a
unique ``invocation_id``; after dispatch the nucleus caches the encoded
reply under that id, and a retransmission returns the cached bytes
instead of dispatching twice.  Only successful (``term``) replies are
cached: error replies are regenerated so a retry after the fault was
repaired (relocation, lock release) is not poisoned by a stale error.

The cache is bounded (insertion-order eviction); a duplicate arriving
after its entry was evicted degrades to at-least-once, the usual
window-of-vulnerability trade every dedup cache makes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional


class ReplyCache:
    """Bounded invocation-id -> encoded-reply cache for one nucleus."""

    def __init__(self, capacity: int = 4096, clock=None) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        #: Virtual clock for eager deadline eviction; None disables it.
        self.clock = clock
        self._replies: "OrderedDict[str, bytes]" = OrderedDict()
        #: invocation_id -> propagated deadline for entries whose
        #: invocation carried one.  Past its deadline a reply can never
        #: be *legally* replayed — the client stops retransmitting — so
        #: the entry is dead weight and is purged eagerly instead of
        #: squatting in the capacity window.
        self._expiry: Dict[str, float] = {}
        self.duplicates_suppressed = 0
        self.replies_cached = 0
        self.evictions = 0
        self.expired_evictions = 0

    def lookup(self, invocation_id: str) -> Optional[bytes]:
        """Return the cached reply for a retransmission, if any."""
        if not invocation_id:
            return None
        reply = self._replies.get(invocation_id)
        if reply is not None:
            self.duplicates_suppressed += 1
        return reply

    def store(self, invocation_id: str, reply: bytes,
              expires_at: Optional[float] = None) -> None:
        if not invocation_id or self.capacity == 0:
            return
        if invocation_id not in self._replies:
            self.replies_cached += 1
        self._replies[invocation_id] = reply
        self._replies.move_to_end(invocation_id)
        if expires_at is not None:
            self._expiry[invocation_id] = expires_at
        else:
            self._expiry.pop(invocation_id, None)
        self.purge_expired()
        while len(self._replies) > self.capacity:
            evicted, _ = self._replies.popitem(last=False)
            self._expiry.pop(evicted, None)
            self.evictions += 1

    def purge_expired(self) -> int:
        """Evict entries whose propagated deadline has passed.

        Capacity eviction is insertion-ordered and blind: under churn a
        burst of short-deadline traffic can push *live* entries out of
        the window while its own — unreplayable — replies stay cached.
        Eager expiry eviction keeps the window for entries a client
        might still legally claim.
        """
        if self.clock is None or not self._expiry:
            return 0
        now = self.clock.now
        stale = [invocation_id for invocation_id, at
                 in self._expiry.items() if at < now]
        for invocation_id in stale:
            del self._expiry[invocation_id]
            self._replies.pop(invocation_id, None)
            self.expired_evictions += 1
        return len(stale)

    def merge_from(self, other: "ReplyCache") -> int:
        """Union another node's entries into this cache (state handoff).

        A retransmission that crosses a migration cutover must still
        find its cached reply, or the new owner re-executes a write the
        old owner already applied (and whose effect travelled inside the
        state snapshot).  Invocation ids are globally unique
        (node/capsule-tagged), so the union cannot collide; existing
        entries win and the capacity bound still applies.  Returns the
        number of entries copied.
        """
        copied = 0
        for invocation_id, reply in other._replies.items():
            if invocation_id not in self._replies:
                self._replies[invocation_id] = reply
                if invocation_id in other._expiry:
                    self._expiry[invocation_id] = \
                        other._expiry[invocation_id]
                copied += 1
        while len(self._replies) > self.capacity:
            evicted, _ = self._replies.popitem(last=False)
            self._expiry.pop(evicted, None)
            self.evictions += 1
        return copied

    def stats(self) -> dict:
        """Counter snapshot for the management monitor."""
        return {
            "entries": len(self._replies),
            "capacity": self.capacity,
            "duplicates_suppressed": self.duplicates_suppressed,
            "replies_cached": self.replies_cached,
            "evictions": self.evictions,
            "expired_evictions": self.expired_evictions,
        }

    def clear(self) -> None:
        self._replies.clear()
        self._expiry.clear()

    def __len__(self) -> int:
        return len(self._replies)

    def __repr__(self) -> str:
        return (f"ReplyCache({len(self._replies)}/{self.capacity}, "
                f"suppressed={self.duplicates_suppressed})")
