"""The data-plane shard router.

A :class:`ShardRouterLayer` is the outermost layer of a sharded client
channel, above the relocation layer.  Per invocation it hashes the
routing key (the operation's first argument), swaps the channel's
reference to the owning shard's interface, and stamps the epoch of the
ring view it routed by into the invocation context (``RING_KEY``).

The router deliberately does *not* watch the space for changes: like
any cache, its view goes stale and the failure signals drive refresh —
the relocation-chase discipline.  A move that left a forwarding stub is
chased transparently by the relocation layer below; a
:class:`~repro.errors.WrongShardError` (fenced mid-move, or a zombie
pre-move record with no stub) bubbles up here, where the router
refreshes its view from the space and re-routes the same invocation.
Both retries are safe: the stub repair re-sends an invocation whose
reply is found in the migrated dedup window, and the fence rejects
before dispatch.
"""

from __future__ import annotations

from repro.comp.invocation import Invocation, InvocationKind
from repro.comp.outcomes import Termination
from repro.engine.layers import ClientLayer
from repro.errors import BindingError, OdpError
from repro.overload.deadline import deadline_of
from repro.resilience.retry import RetryGate, Verdict, classify
from repro.shard.space import RING_KEY


class ShardRouterLayer(ClientLayer):
    """Key -> shard -> owner resolution with chase-on-stale retry."""

    name = "shard"

    #: The channel-level lease cache must not key entries by the bound
    #: ref — this layer swaps it per key.  The channel skips caching on
    #: routed channels and the router consults the cache itself below,
    #: against the *resolved* shard ref (shard interface ids are stable
    #: across moves, so entries stay addressable — and drain-on-move
    #: flushes them before ownership actually changes).
    routes_by_key = True

    def __init__(self, space, max_chases: int = 4) -> None:
        self.space = space
        self.max_chases = max_chases
        self.channel = None
        #: The cached routing snapshot; refreshed only on failure
        #: signals, so a router can serve forever off one view while
        #: ownership is stable.
        self.view = space.view()
        self.chases = 0
        self.refreshes = 0

    def attach(self, channel) -> None:
        self.channel = channel
        self.space.routers.append(self)

    def request(self, invocation: Invocation, next_layer) -> Termination:
        if not invocation.args:
            raise BindingError(
                f"sharded operation {invocation.operation!r} needs its "
                f"routing key as the first argument")
        index = self.space.shard_of(str(invocation.args[0]))
        lease = self.channel.client_nucleus.lease_client
        if lease is not None and \
                invocation.kind == InvocationKind.INTERROGATION:
            ref = self.view.refs.get(index)
            if ref is not None:
                cached = lease.lookup(ref, invocation.operation,
                                      invocation.args)
                if cached is not None:
                    return cached
        gate = RetryGate(self.channel.client_nucleus, "shard",
                         f"shard chase for {invocation.operation!r}",
                         deadline_of(invocation.context.extra))
        chases = 0
        while True:
            pointed = self._point(invocation, index)
            if chases == 0:
                gate.first(pointed.primary_path().node)
            try:
                termination = next_layer(invocation)
            except OdpError as error:
                if classify(error).verdict is not Verdict.REFRESH:
                    raise
                # The fence rejected before dispatch, so a re-route is
                # always safe — but only within the propagated deadline
                # and the path's retry budget.  Budget exhaustion must
                # *not* refresh the view or re-route: a chase storm is
                # exactly the amplification the budget exists to cap.
                chases += 1
                if chases > self.max_chases:
                    raise
                gate.retry(pointed.primary_path().node)
                self.chases += 1
                self._refresh()
                continue
            if self.channel.ref is not pointed:
                # The relocation layer below chased a forwarding stub
                # and rebound mid-call: adopt the newer placement so
                # the next invocation routes straight, not via the stub.
                self._refresh()
            if lease is not None and termination is not None and \
                    invocation.kind == InvocationKind.INTERROGATION:
                lease.store(self.channel.ref, invocation.operation,
                            invocation.args, termination)
            return termination

    def _point(self, invocation: Invocation, index: int):
        """Aim the channel at the shard's owner under the cached view."""
        ref = self.view.refs.get(index)
        if ref is None:
            self._refresh()
            ref = self.view.refs[index]
        # Swap the reference, as every rebind does; the transport
        # identity-checks the ref on every call, so its path memo can
        # never go stale.
        self.channel.ref = ref
        invocation.interface_id = ref.interface_id
        invocation.epoch = ref.epoch
        invocation.context.extra[RING_KEY] = self.view.epoch
        return ref

    def _refresh(self) -> None:
        self.view = self.space.view()
        self.refreshes += 1
