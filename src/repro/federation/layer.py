"""Federation transparency: the boundary-crossing machinery.

Client side: :class:`FederationClientLayer` detects that the target
interface is defined in another domain, checks the egress contract, adds
context-relative annotations, and forwards the invocation to the next
domain's *gateway* over the network (in the gateway's native wire format —
this is where technology translation physically happens).

Gateway side: :func:`gateway_process` performs the administrative
interception of section 5.6 — the link's one ledger booking of the
crossing, principal mapping, credential re-issue — then either delivers
locally or forwards to the next hop along the federation route (transit
egress checks the next link's contract; the next gateway books it).
Replies crossing back out get their references annotated with the
defining context (section 6).
"""

from __future__ import annotations

from typing import Optional

from repro.comp.constraints import EnvironmentConstraints
from repro.comp.invocation import Invocation
from repro.comp.outcomes import Termination
from repro.engine.layers import ClientLayer
from repro.engine.remote import decode_reply, inv_object
from repro.errors import FederationError, NodeUnreachableError
from repro.federation.naming import annotate_refs
from repro.ndr.formats import get_format
from repro.trace.span import NULL_SPAN


class FederationClientLayer(ClientLayer):
    """Routes invocations whose target lives in a foreign domain."""

    name = "federation"

    def __init__(self, nucleus, capsule, domain) -> None:
        self.nucleus = nucleus
        self.capsule = capsule
        self.domain = domain
        self.channel = None

    def attach(self, channel) -> None:
        self.channel = channel

    def request(self, invocation: Invocation, next_layer) -> Termination:
        federation = self.domain.federation
        target_domain = federation.domain_of_ref(self.channel.ref)
        if target_domain is None or target_domain == self.domain.name:
            return next_layer(invocation)

        route = federation.route(self.domain.name, target_domain)
        next_hop = route[1]
        link = federation.link_between(self.domain.name, next_hop)
        link.check_egress(invocation.context.principal,
                          invocation.operation)

        invocation.args = annotate_refs(
            invocation.args, self.domain.name, self.domain.defined_here)
        invocation.context.via_domains = (
            invocation.context.via_domains + (self.domain.name,))
        if invocation.context.origin_domain is None:
            invocation.context.origin_domain = self.domain.name

        span = self.nucleus.tracer.span(
            "federation.forward", "federation", invocation.context.trace,
            node=self.nucleus.node_address,
            tags={"to_domain": target_domain, "next_hop": next_hop})
        saved_trace = invocation.context.trace
        if span is not NULL_SPAN:
            invocation.context.trace = span.context
        try:
            termination = forward_to_domain(
                self.nucleus, self.capsule, federation, next_hop,
                self.channel.ref, invocation)
        except Exception as exc:
            span.tag("error", type(exc).__name__).finish(status="error")
            raise
        finally:
            invocation.context.trace = saved_trace
        span.finish()
        if termination is None:
            return Termination("ok", ())
        return termination


def forward_to_domain(nucleus, capsule, federation, hop_domain_name: str,
                      ref, invocation: Invocation) -> Termination:
    """One network exchange with *hop_domain*, trying each of its
    boundary gateways until one is reachable."""
    hop_domain = federation.domain(hop_domain_name)
    marshaller = capsule.marshaller
    tracer = nucleus.tracer
    parent_trace = invocation.context.trace
    last_error = None
    try:
        for gw_node, gw_capsule in hop_domain.gateways():
            span = tracer.span(
                "net.request", "net", parent_trace,
                node=nucleus.node_address,
                tags={"to": gw_node, "hop_domain": hop_domain_name})
            if span is not NULL_SPAN:
                invocation.context.trace = span.context
            wire = get_format(
                federation.network.node(gw_node).native_format)
            payload = wire.dumps({
                "capsule": gw_capsule,
                "fedfwd": {
                    "ref": marshaller.marshal(ref),
                    "inv": inv_object(
                        marshaller, invocation.interface_id,
                        invocation.operation, invocation.args,
                        invocation.kind.value, invocation.epoch,
                        invocation.context),
                },
            })
            try:
                reply_bytes = federation.network.request(
                    nucleus.node_address, gw_node, payload)
            except NodeUnreachableError as exc:
                span.finish(status="unreachable")
                last_error = exc
                continue
            span.finish()
            return decode_reply(wire, reply_bytes, marshaller, gw_node)
    finally:
        invocation.context.trace = parent_trace
    raise FederationError(
        f"no reachable gateway in domain {hop_domain_name}: {last_error}")


def gateway_process(domain, nucleus, capsule, ref,
                    invocation: Invocation) -> Termination:
    """Administrative + technology interception at a domain gateway."""
    federation = domain.federation
    context = invocation.context
    via = context.via_domains
    if not via:
        raise FederationError(
            f"gateway {domain.name}: forwarded invocation carries no "
            f"via-domain trail")
    from_domain = via[-1]
    link = federation.link_between(from_domain, domain.name)
    # The one booking of this crossing, under the principal's name in
    # the link's source namespace (before mapping).
    link.account(context.principal, invocation.operation)

    # Ingress: map the principal into our namespace and re-issue local
    # credentials if the mapped principal is enrolled here — the gateway
    # is the trusted intermediary between the two secret authorities.
    principal = context.principal = link.map_principal(context.principal)
    context.credentials = (
        domain.authority.credentials_for(principal)
        if principal and domain.authority.is_enrolled(principal) else {})

    gw_span = domain.tracer.span(
        "federation.gateway", "federation", invocation.context.trace,
        node=nucleus.node_address,
        tags={"domain": domain.name, "from_domain": from_domain})
    if gw_span is not NULL_SPAN:
        invocation.context.trace = gw_span.context

    target_domain = federation.domain_of_ref(ref)
    try:
        if target_domain == domain.name:
            termination = _deliver_locally(domain, nucleus, capsule, ref,
                                           invocation)
        else:
            route = federation.route(domain.name, target_domain)
            next_hop = route[1]
            egress = federation.link_between(domain.name, next_hop)
            egress.check_egress(invocation.context.principal,
                                invocation.operation)
            invocation.context.via_domains = via + (domain.name,)
            termination = forward_to_domain(nucleus, capsule, federation,
                                            next_hop, ref, invocation)
    except Exception as exc:
        gw_span.tag("error", type(exc).__name__).finish(status="error")
        raise
    gw_span.finish()
    if termination is None:
        termination = Termination("ok", ())
    # Context-relative naming on the way out (section 6).
    return annotate_refs(termination, domain.name, domain.defined_here)


def _deliver_locally(domain, nucleus, capsule, ref,
                     invocation: Invocation) -> Optional[Termination]:
    """The reference is home: strip its context and invoke via a channel
    so location repair and group routing still apply.

    One channel per (gateway capsule, interface) serves every arrival —
    a channel registers its transport, plan cache and relocation layer
    with the nucleus for good, so one per arrival would grow those lists
    without bound.  It is rebound only to a reference fresher than the
    one it holds (its own location repairs keep it current otherwise).
    """
    from repro.transparency.compiler import compile_client_channel

    local_ref = ref.with_context(())
    fresher = domain.relocator.try_lookup(local_ref.interface_id)
    if fresher is not None and fresher.epoch >= local_ref.epoch:
        local_ref = fresher
    key = (capsule, local_ref.interface_id)
    channel = domain._deliveries.get(key)
    if channel is None:
        channel = domain._deliveries[key] = compile_client_channel(
            nucleus, capsule, local_ref, EnvironmentConstraints.DEFAULT)
    elif local_ref.epoch > channel.ref.epoch:
        channel.ref = local_ref
    return channel.invoke(invocation.operation, invocation.args,
                          kind=invocation.kind, qos=invocation.qos,
                          context=invocation.context)
