"""The client-side relocation layer.

Catches :class:`~repro.errors.StaleReferenceError` (the server moved) and
:class:`~repro.errors.NodeUnreachableError` (the server's node died or was
partitioned away, and the object may have been recovered elsewhere), repairs
the binding and retries — so the application never observes that the object
moved.  Repair sources, in order:

1. the forwarding hint carried by the stale-reference error (left behind by
   migration, section 5.5),
2. the domain relocator (section 5.4).

Repairs are bounded to avoid chasing an object that moves on every hop.
"""

from __future__ import annotations

from repro.comp.invocation import Invocation
from repro.comp.outcomes import Termination
from repro.engine.layers import ClientLayer
from repro.errors import NodeUnreachableError, StaleReferenceError


class RelocationLayer(ClientLayer):
    """Transparent rebind-and-retry for moved interfaces."""

    name = "location"

    #: How many rebinds one invocation may chase before giving up.
    max_repairs = 4

    def __init__(self, relocator) -> None:
        self.relocator = relocator
        self.channel = None
        self.hint_repairs = 0
        self.lookup_repairs = 0

    def attach(self, channel) -> None:
        self.channel = channel

    def request(self, invocation: Invocation, next_layer) -> Termination:
        repairs = 0
        while True:
            try:
                return next_layer(invocation)
            except StaleReferenceError as stale:
                repairs += 1
                if repairs > self.max_repairs:
                    raise
                self._repair(invocation, stale.forward_hint)
            except NodeUnreachableError:
                repairs += 1
                if repairs > self.max_repairs:
                    raise
                if not self._repair_if_moved(invocation):
                    raise

    def _repair(self, invocation: Invocation, hint) -> None:
        """Rebind from a forwarding hint or a relocator lookup."""
        if hint is not None and hint.interface_id == \
                self.channel.ref.interface_id:
            self.hint_repairs += 1
            self.relocator.stale_hints += 1
            self._rebind(invocation, "hint", hint)
        else:
            self._chase(invocation, "lookup", self.relocator.lookup(
                self.channel.ref.interface_id))

    def _repair_if_moved(self, invocation: Invocation) -> bool:
        """After an unreachable node: rebind only if the relocator knows a
        *different* location (otherwise the failure is genuine)."""
        current = self.channel.ref
        try:
            candidate = self.relocator.lookup(current.interface_id)
        except StaleReferenceError:
            return False
        if candidate.epoch <= current.epoch:
            return False
        if candidate.paths == current.paths:
            return False
        self._chase(invocation, "unreachable-lookup", candidate)
        return True

    def _chase(self, invocation: Invocation, source: str, new_ref) -> None:
        """Rebind to where a relocator lookup found the interface."""
        self.lookup_repairs += 1
        self.relocator.chases += 1
        self._rebind(invocation, source, new_ref)

    def _rebind(self, invocation: Invocation, source: str, new_ref) -> None:
        """Record the repair as a zero-duration span, and point the
        binding and the invocation it retries at *new_ref*."""
        nucleus = getattr(self.channel, "client_nucleus", None)
        if nucleus is not None:
            nucleus.tracer.span(
                "relocation.repair", "relocation", invocation.context.trace,
                node=nucleus.node_address,
                tags={"source": source,
                      "interface": new_ref.interface_id,
                      "epoch": new_ref.epoch},
            ).finish()
        self.channel.ref = new_ref
        invocation.interface_id = new_ref.interface_id
        invocation.epoch = new_ref.epoch
