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

from typing import Optional

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
        self.repairs = 0
        self.hint_repairs = 0
        self.lookup_repairs = 0

    def attach(self, channel) -> None:
        self.channel = channel
        nucleus = getattr(channel, "client_nucleus", None)
        if nucleus is not None:
            # Register for management visibility: the monitor's
            # relocation section aggregates chase churn across layers.
            nucleus.relocation_layers.append(self)

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
            new_ref = hint
            source = "hint"
            self.hint_repairs += 1
        else:
            new_ref = self.relocator.lookup(self.channel.ref.interface_id)
            source = "lookup"
            self.lookup_repairs += 1
        self.repairs += 1
        self._trace_repair(invocation, source, new_ref)
        self.channel.ref = new_ref
        invocation.interface_id = new_ref.interface_id
        invocation.epoch = new_ref.epoch

    def _repair_if_moved(self, invocation: Invocation) -> bool:
        """After an unreachable node: rebind only if the relocator knows a
        *different* location (otherwise the failure is genuine)."""
        current = self.channel.ref
        candidate = self.relocator.try_lookup(current.interface_id)
        if candidate is None or candidate.epoch <= current.epoch:
            return False
        if candidate.paths == current.paths:
            return False
        self.repairs += 1
        self.lookup_repairs += 1
        self._trace_repair(invocation, "unreachable-lookup", candidate)
        self.channel.ref = candidate
        invocation.interface_id = candidate.interface_id
        invocation.epoch = candidate.epoch
        return True

    def _trace_repair(self, invocation: Invocation, source: str,
                      new_ref) -> None:
        """Record one binding chase as a zero-duration span."""
        nucleus = getattr(self.channel, "client_nucleus", None)
        if nucleus is None:
            return
        nucleus.tracer.span(
            "relocation.repair", "relocation", invocation.context.trace,
            node=nucleus.node_address,
            tags={"source": source,
                  "interface": new_ref.interface_id,
                  "epoch": new_ref.epoch},
        ).finish()
