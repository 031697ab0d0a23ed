"""Online shard rebalancing: staged, fenced, chased — never doubled.

A membership change (join, graceful leave, detected node loss) moves
exactly the shards consistent hashing says must move.  Each move is
staged:

1. **fence** — the shard's writes are rejected pre-dispatch
   (:class:`~repro.errors.WrongShardError`, retryable) so no write can
   land in the state snapshot's blind spot;
2. **transfer** — the ordinary :class:`~repro.migration.Migrator` moves
   the state (forwarding stub, epoch bump, relocator update), and the
   source node's reply-dedup window is unioned into the target's so a
   retransmission crossing the cutover still finds its cached reply
   instead of re-executing;
3. **cutover** — ownership is published (space epoch bump) and the
   fresh interface is re-fenced;
4. **unfence** — rejected writers chase back in through their routers.

A *dead* owner cannot be migrated from; its shards are re-instated from
their checkpoints via the :class:`~repro.recovery.RecoveryManager` —
which is why every shard is exported durable.  The pre-crash records
left on the dead node are exactly what the epoch fence exists for: when
the node restarts, a stale router's write bounces off the fence instead
of executing on a zombie shard.

Every move samples its per-shard degraded window into
``space.mttr_ms`` (detection-inclusive when the supervisor supplies
``down_since``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import OdpError


@dataclass(frozen=True)
class ShardMove:
    """One completed shard relocation."""

    index: int
    from_node: str
    to_node: str
    kind: str  # "migrate" | "recover"
    window_ms: float


class Rebalancer:
    """Drives a space's placement back to what its ring prescribes."""

    def __init__(self, space) -> None:
        self.space = space
        self.moves: List[ShardMove] = []
        self.failures = 0

    # -- membership events ---------------------------------------------------

    def node_joined(self, capsule) -> List[ShardMove]:
        """A (possibly restarted) node offers capacity: take it."""
        space = self.space
        node = space.register_capsule(capsule)
        if space.ring.has_node(node):
            return []
        space.ring.add_node(node)
        self._span("shard.join", {"space": space.name, "node": node})
        return self.rebalance()

    def node_left(self, node: str, dead: bool = False,
                  down_since: Optional[float] = None) -> List[ShardMove]:
        """Drain a node: graceful migration, or recovery when *dead*."""
        space = self.space
        if not space.ring.has_node(node):
            return []
        space.ring.remove_node(node)
        self._span("shard.leave", {"space": space.name, "node": node,
                                   "dead": dead})
        return self.rebalance(dead=frozenset((node,)) if dead else
                              frozenset(), down_since=down_since)

    # -- convergence ---------------------------------------------------------

    def rebalance(self, dead: frozenset = frozenset(),
                  down_since: Optional[float] = None) -> List[ShardMove]:
        """Move every shard whose owner disagrees with the ring."""
        space = self.space
        view = space.ring.view()
        made: List[ShardMove] = []
        for index in range(space.shard_count):
            target = view.owner(space.shard_id(index))
            if target == space.owners[index]:
                continue
            try:
                made.append(self._move(index, target, dead, down_since))
            except OdpError as exc:
                self.failures += 1
                self._span("shard.move-failed",
                           {"space": space.name, "shard": index,
                            "to": target, "error": type(exc).__name__})
        self.moves.extend(made)
        return made

    def _move(self, index: int, target: str, dead: frozenset,
              down_since: Optional[float]) -> ShardMove:
        space = self.space
        source = space.owners[index]
        clock = space.domain.scheduler.clock
        started = down_since if down_since is not None else clock.now
        space.fence(index)
        try:
            self._drain_leases(index)
            if source in dead:
                new_ref = space.domain.recovery.recover(
                    space.shard_id(index), space.capsules[target])
                space.recoveries += 1
                kind = "recover"
            else:
                new_ref = space.domain.migrator.migrate(
                    space.capsules[source], space.shard_id(index),
                    space.capsules[target])
                self._move_dedup_window(source, target)
                space.migrations += 1
                kind = "migrate"
            space.publish(index, target, new_ref)
        finally:
            space.unfence(index)
        window = clock.now - started
        space.mttr_ms.append(window)
        self._span("shard.move", {"space": space.name, "shard": index,
                                  "from": source, "to": target,
                                  "kind": kind,
                                  "window_ms": round(window, 3)})
        return ShardMove(index, source, target, kind, window)

    def _drain_leases(self, index: int) -> None:
        """Revoke client cache leases on a shard before its cutover.

        A shard in cached mode may have readers serving it from private
        caches; moving the state while those grants stand would let a
        holder whose flush message is lost keep reading the *old* copy
        after ownership changed.  Drain first: revoke every grant
        (posting flushes), then wait one grace window — the longest
        remaining grant validity — behind the fence, so by cutover any
        holder the flush never reached has self-fenced at expiry.
        """
        space = self.space
        domain = space.domain
        if domain._leases is None:
            return
        remaining = domain._leases.drain_interface(space.shard_id(index))
        if remaining > 0:
            domain.scheduler.run_until(
                domain.scheduler.clock.now + remaining)

    def _move_dedup_window(self, source: str, target: str) -> None:
        """Carry the source's reply-cache entries across the cutover.

        Entries are cached as encoded bytes in the server's native wire
        format, so the union is only possible between same-format nodes;
        a heterogeneous pair keeps the pre-existing at-least-once window
        instead.  (A dead source's window is genuinely lost — that
        ambiguity is the oracles' 0-or-1 envelope, not a duplication.)
        """
        domain = self.space.domain
        src = domain.nuclei.get(source)
        dst = domain.nuclei.get(target)
        if src is None or dst is None:
            return
        if domain.wire_format_of(source) != domain.wire_format_of(target):
            return
        self.space.reply_entries_moved += \
            dst.reply_cache.merge_from(src.reply_cache)

    # -- instrumentation -----------------------------------------------------

    def _span(self, name: str, tags: Dict) -> None:
        tracer = self.space.domain.tracer
        root = tracer.start_trace()
        tracer.span(name, "shard", root,
                    node=next(iter(sorted(self.space.capsules)), "?"),
                    tags=tags).finish()
