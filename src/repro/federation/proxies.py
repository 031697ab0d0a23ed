"""Proxy objects at domain boundaries (paper section 5.6).

"For a technology boundary the interceptor must stand on the boundary
itself and translate between the two domains.  The translation may be
simple conversion, or it may be that the interceptor has to set up proxy
objects in each domain that stand as representatives of objects on the
other side of the boundary."

Simple conversion is the gateway's normal forwarding path
(:mod:`repro.federation.layer`).  This module is the second form:
:func:`materialize_proxy` exports, into the local gateway capsule, a
*representative object* for a foreign interface.  Local clients then
hold an ordinary local reference — local trading, local GC leases, local
binds — while every invocation is forwarded across the boundary by the
representative.
"""

from __future__ import annotations

from repro.comp.invocation import InvocationKind
from repro.comp.model import OdpObject
from repro.comp.outcomes import Signal
from repro.comp.reference import InterfaceRef
from repro.errors import FederationError
from repro.trace.context import current_trace
from repro.trace.span import NULL_SPAN
from repro.types.signature import InterfaceSignature


class ForeignRepresentative(OdpObject):
    """A locally exported stand-in for an object in another domain.

    Methods are installed per operation at construction time, each
    forwarding through a channel bound in the gateway capsule — so the
    forwarding leg gets the full client stack (federation routing,
    context annotation, repair) of the gateway's domain.
    """

    def __init__(self, channel, context_factory,
                 signature: InterfaceSignature,
                 foreign_ref: InterfaceRef) -> None:
        self._channel = channel
        self._context_factory = context_factory
        self._foreign_ref = foreign_ref
        for op_name, op_sig in signature.operations.items():
            setattr(self, op_name, self._make_forwarder(op_name, op_sig))

    def _make_forwarder(self, op_name: str, op_sig):
        announcement = op_sig.announcement

        def forward(*args):
            kind = (InvocationKind.ANNOUNCEMENT if announcement
                    else InvocationKind.INTERROGATION)
            context = self._context_factory()
            nucleus = self._channel.client_nucleus
            # The representative runs inside the gateway's dispatch, so
            # the forwarding leg continues the ambient (incoming) trace.
            span = nucleus.tracer.span(
                "federation.proxy", "federation", current_trace(),
                node=nucleus.node_address,
                tags={"op": op_name,
                      "foreign": self._foreign_ref.interface_id})
            if span is not NULL_SPAN:
                context.trace = span.context
            try:
                termination = self._channel.invoke(
                    op_name, args, kind=kind, context=context)
            except Exception as exc:
                span.tag("error", type(exc).__name__).finish(status="error")
                raise
            span.finish()
            if announcement or termination is None:
                return None
            if not termination.ok:
                raise Signal(termination.name, *termination.values)
            if not termination.values:
                return None
            if len(termination.values) == 1:
                return termination.values[0]
            return termination.values

        forward.__name__ = op_name
        return forward

    def odp_ready_to_move(self) -> bool:
        # A representative is bound to its gateway; it does not migrate.
        return False


def materialize_proxy(domain, foreign_ref: InterfaceRef,
                      principal: str = None) -> InterfaceRef:
    """Export a local representative of *foreign_ref* at our gateway.

    Returns a *local* reference with the same signature.  Representatives
    are cached per (foreign id, epoch, principal): repeated
    materialisation returns the same local interface.
    """
    federation = domain.federation
    target_domain = federation.domain_of_ref(foreign_ref)
    if target_domain == domain.name:
        return foreign_ref  # already local; nothing to represent
    if target_domain is not None:
        federation.route(domain.name, target_domain)  # raises if none

    key = (foreign_ref.interface_id, foreign_ref.epoch, principal)
    cached = domain._proxy_cache.get(key)
    if cached is not None:
        return cached

    gw_capsule = domain.gateway_capsule()
    nucleus = gw_capsule.nucleus
    from repro.engine.binder import Binder

    binder = Binder(nucleus, gw_capsule)
    bound = binder.bind(foreign_ref, principal=principal)
    representative = ForeignRepresentative(
        bound._channel, bound._context_factory,
        foreign_ref.signature, foreign_ref)
    local_ref = gw_capsule.export(representative,
                                  signature=foreign_ref.signature)
    domain._proxy_cache[key] = local_ref
    return local_ref
