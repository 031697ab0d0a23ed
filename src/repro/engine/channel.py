"""Channels: the client-side access path to an interface.

A channel owns the *current* reference to the target (location transparency
may replace it), a stack of client layers, and a :class:`TransportLayer`:
marshal into the target's wire format, exchange messages over the simulated
network with QoS-driven retries and deadlines.  The transport also carries
the direct-local-access optimisation of section 4.5: when client and server
are co-located (and the constraints allow it) it skips marshalling and the
network entirely and calls straight into the server capsule — which still
runs the server-side stack, so guards and concurrency control are never
bypassed.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.comp.invocation import (
    Invocation,
    InvocationContext,
    InvocationKind,
    QoS,
)
from repro.comp.outcomes import Termination
from repro.comp.reference import AccessPath, InterfaceRef
from repro.engine.layers import compose_client
from repro.engine.nucleus import Nucleus
from repro.engine.remote import _loads_reply, decode_reply, termination_of
from repro.errors import (
    BindingError,
    CommunicationError,
    DeadlineExceededError,
    NodeUnreachableError,
    ProtocolMismatchError,
)
from repro.ndr.formats import REUSE_MAX_BYTES, REUSE_MIN_BYTES, get_format
from repro.ndr.plancache import PLANS
from repro.overload.deadline import deadline_of, earliest_deadline, stamp
from repro.resilience.retry import (
    RetryGate,
    RetryPolicy,
    Verdict,
    classify,
)
from repro.trace.context import current_trace
from repro.trace.span import NULL_SPAN, span_name


class Channel:
    """A bound access path from one client capsule to one interface."""

    def __init__(self, ref: InterfaceRef, client_nucleus: Nucleus,
                 client_capsule, layers, transport) -> None:
        self.ref = ref
        self.client_nucleus = client_nucleus
        self.client_capsule = client_capsule
        self.layers = list(layers)
        self.transport = transport
        transport.attach(self)
        for layer in self.layers:
            if hasattr(layer, "attach"):
                layer.attach(self)
        self._chain = compose_client(self.layers, transport.send)
        # Channels whose layer stack routes each call to a per-key ref
        # (the shard router) cannot be cached at channel level — the
        # bound ref is not the ref the call will hit.  Such layers
        # consult the lease cache themselves, after resolving the key.
        self._routed_by_key = any(
            getattr(layer, "routes_by_key", False) for layer in self.layers)

    def invoke(self, operation: str, args: Tuple = (),
               kind: InvocationKind = InvocationKind.INTERROGATION,
               qos: Optional[QoS] = None,
               context: Optional[InvocationContext] = None
               ) -> Optional[Termination]:
        # Lease-cache short-circuit (repro.lease): a registered
        # read-only interrogation under a valid grant never leaves the
        # node — served here, before path selection and the network.
        lease = self.client_nucleus.lease_client
        cacheable = (lease is not None and not self._routed_by_key
                     and kind == InvocationKind.INTERROGATION)
        if cacheable:
            cached = lease.lookup(self.ref, operation, args)
            if cached is not None:
                return cached
        context = context if context is not None else InvocationContext()
        qos = qos or QoS.DEFAULT

        # Deadline propagation (repro.overload): stamp the *absolute*
        # deadline and any non-default priority into the context, so
        # every hop — and the server's arrival gate — sees the budget
        # the client actually has left, not a fresh per-hop allowance.
        if self.client_nucleus.deadline_propagation:
            stamp(context.extra, qos,
                  self.client_nucleus.network.scheduler.now)

        # Trace allocation at the client stub (section 7.4): join the
        # ambient trace when this call is nested inside a dispatch,
        # otherwise mint a fresh trace (head sampling decides here).
        tracer = self.client_nucleus.tracer
        if context.trace is None:
            ambient = current_trace()
            context.trace = (ambient if ambient is not None
                             else tracer.start_trace())
        if context.trace.sampled:
            span = tracer.span(
                span_name("invoke", operation), "invoke", context.trace,
                node=self.client_nucleus.node_address,
                tags={"interface": self.ref.interface_id})
            if span is not NULL_SPAN:
                context.trace = span
        else:
            span = NULL_SPAN

        invocation = Invocation(
            interface_id=self.ref.interface_id,
            operation=operation,
            args=tuple(args),
            kind=kind,
            qos=qos,
            context=context,
            epoch=self.ref.epoch,
            invocation_id=self.client_capsule.next_invocation_id(),
        )
        try:
            termination = self._chain(invocation)
        except Exception as exc:
            span.tag("error", type(exc).__name__).finish(status="error")
            raise
        span.finish()
        if cacheable and termination is not None:
            lease.store(self.ref, operation, args, termination)
        return termination


class TransportLayer:
    """Marshalling + network exchange with QoS retries and deadlines.

    The resilience layer (``repro.resilience``) lives here on the client
    side: retransmissions follow a :class:`RetryPolicy` (exponential
    backoff, deterministic jitter, waits clipped to the QoS deadline),
    per-(node, protocol) circuit breakers veto dead paths during path
    selection, exhausting one path's retries fails over to the next
    path, and every invocation carries a unique id so the server's reply
    cache can deduplicate retransmissions (exactly-once execution).
    What an error means for the loop is read from the classification
    table in :mod:`repro.resilience.retry`; each attempt is admitted by
    a :class:`~repro.resilience.retry.RetryGate`.  What the loop did
    is counted once, in the nucleus's ``resilience`` stats.

    Each reply is read here, in :meth:`_exchange`, once per channel:
    terminations of plain values are constant state (section 4.5), so
    a reply of at least :data:`REUSE_MIN_BYTES` byte-identical to one
    this channel already decoded *is* the termination it decoded to,
    and is not decoded again.  Only a termination the value lane read
    whole is kept — never an error reply, never one whose values went
    through the marshaller (references) — and at most
    :data:`REUSE_MAX_BYTES` of reply bytes, oldest out first.
    """

    name = "transport"

    def __init__(self, client_nucleus: Nucleus, client_capsule,
                 allow_local: bool = True) -> None:
        self.nucleus = client_nucleus
        self.capsule = client_capsule
        self.network = client_nucleus.network
        #: Direct-local-access optimisation (section 4.5): co-located
        #: targets are dispatched straight into their capsule, skipping
        #: marshalling and the network.  Disable to force the full path.
        self.allow_local = allow_local
        self.channel: Optional[Channel] = None
        self._retry_rng = client_nucleus.network.rng.fork(
            f"retry:{client_nucleus.node_address}:{client_capsule.name}")
        self.busy_retries = 0
        client_nucleus.transports.append(self)
        #: Path selection memo, keyed by the QoS protocol constraint and
        #: valid only for the reference it was computed against.
        self._path_cache: dict = {}
        self._path_cache_ref: Optional[InterfaceRef] = None
        #: Large replies already read: reply bytes -> their termination,
        #: oldest first, and the reply bytes they hold.
        self._replies: OrderedDict = OrderedDict()
        self._replies_bytes = 0

    def attach(self, channel: Channel) -> None:
        self.channel = channel

    # -- path selection ---------------------------------------------------------

    def _select_path(self, qos: QoS) -> Tuple[AccessPath, ...]:
        ref = self.channel.ref
        if ref is not self._path_cache_ref:
            # The one invalidation rule: a rebind assigns a new
            # channel.ref, so no memo outlives its reference.  (Codec
            # plans are keyed by the id and epoch they embed.)
            self._path_cache.clear()
            self._path_cache_ref = ref
        cached = self._path_cache.get(qos.protocol)
        if cached is not None:
            return cached
        if not ref.paths:
            raise BindingError(
                f"reference {ref.interface_id} carries no access paths")
        if qos.protocol:
            paths = ref.paths_for_protocol(qos.protocol)
            if not paths:
                raise ProtocolMismatchError(
                    f"no access path speaks protocol {qos.protocol!r}")
        else:
            paths = ref.paths
        self._path_cache[qos.protocol] = paths
        return paths

    # -- encode ---------------------------------------------------------------

    def _encode(self, invocation: Invocation, path: AccessPath) -> bytes:
        inv_id = invocation.invocation_id or None
        plan = PLANS.plan_for(
            get_format(path.wire_format), path.capsule,
            invocation.interface_id, invocation.operation,
            invocation.kind.value, invocation.epoch, inv_id is not None)
        # One-buffer assembly: the argument values go straight to bytes
        # (marshalled first only when they are not plain data) and the
        # context straight from its fields, skipping encode_context's
        # dict.
        return plan.encode_request(invocation.args, invocation.context,
                                   inv_id, self.capsule.marshaller)

    # -- the exchange -----------------------------------------------------------

    def _try_local(self, invocation: Invocation
                   ) -> Optional[Termination]:
        """Dispatch directly when the current path is on this node."""
        if self.network.faults.is_crashed(self.nucleus.node_address):
            raise NodeUnreachableError(
                f"node {self.nucleus.node_address} is crashed; it can "
                f"invoke nothing")
        path = self.channel.ref.primary_path()
        if path.node != self.nucleus.node_address:
            return None
        target = self.nucleus.capsules.get(path.capsule)
        if target is None:
            return None
        if invocation.kind == InvocationKind.ANNOUNCEMENT:
            def run() -> None:
                try:
                    target.dispatch(invocation)
                except Exception:
                    pass  # announcements cannot report failure

            self.network.scheduler.after(0.0, run, label="local-announce")
            # A non-None sentinel is needed so the caller knows the send
            # happened; announcements have no termination.
            return Termination("ok", ())
        trace = invocation.context.trace
        if trace is not None and trace.sampled:
            span = self.nucleus.tracer.span(
                "transport.local", "transport", trace,
                node=self.nucleus.node_address,
                tags={"capsule": path.capsule})
            if span is not NULL_SPAN:
                invocation.context.trace = span.context
        else:
            span = NULL_SPAN
        try:
            termination = target.dispatch(invocation)
        except Exception as exc:
            span.tag("error", type(exc).__name__).finish(status="error")
            raise
        span.finish()
        return termination

    def send(self, invocation: Invocation) -> Optional[Termination]:
        invocation.interface_id = self.channel.ref.interface_id
        invocation.epoch = self.channel.ref.epoch
        # Each attempt re-parents the carried trace below; restore it on
        # the way out so a layer above (relocation repair) that re-sends
        # the same invocation starts from its own span again.
        parent_ctx = invocation.context.trace
        try:
            return self._send(invocation, parent_ctx)
        finally:
            invocation.context.trace = parent_ctx

    def _send(self, invocation: Invocation,
              parent_ctx) -> Optional[Termination]:
        qos = invocation.qos
        # One cheap verdict up front: when the carried trace is absent
        # or unsampled, everything below skips tag/span building.
        traced = parent_ctx is not None and parent_ctx.sampled
        if self.allow_local and self.channel.ref.paths:
            local = self._try_local(invocation)
            if local is not None:
                if invocation.kind == InvocationKind.ANNOUNCEMENT:
                    return None
                return local
        if invocation.kind == InvocationKind.ANNOUNCEMENT:
            return self._post(invocation, parent_ctx, traced)

        policy = RetryPolicy.from_qos(qos)
        # A propagated deadline (stamped by this or an upstream client)
        # caps the local QoS allowance: no retry loop may run past it.
        gate = RetryGate(
            self.nucleus, "invoke", invocation.operation,
            earliest_deadline(qos, self.network.scheduler.now,
                              deadline_of(invocation.context.extra)),
            expiry=DeadlineExceededError, inclusive=True)
        paths = self._select_path(qos)
        #: The last loss and the last dead path seen on any path.
        failed: Dict[Verdict, Exception] = {}
        for index, path in enumerate(paths):
            breaker = self.nucleus.breakers.breaker_for(path.node,
                                                        path.protocol)
            if not breaker.allow():
                self.nucleus.resilience.breaker_short_circuits += 1
                if traced:
                    self.nucleus.tracer.span(
                        "resilience.breaker", "resilience", parent_ctx,
                        node=self.nucleus.node_address,
                        tags={"path": f"{path.node}/{path.protocol}"},
                    ).finish(status="rejected")
                failed.setdefault(
                    Verdict.NEXT_TARGET, NodeUnreachableError(
                        f"{invocation.operation}: circuit open for "
                        f"{path.node}/{path.protocol}"))
                continue
            termination = self._on_path(invocation, path, policy, gate,
                                        breaker, failed, parent_ctx,
                                        traced)
            if termination is not None:
                return termination
            if index + 1 < len(paths):
                self.nucleus.resilience.path_failovers += 1
        raise (failed.get(Verdict.RETRY_HERE)
               or failed.get(Verdict.NEXT_TARGET)
               or CommunicationError(
                   f"{invocation.operation}: all access paths failed"))

    def _post(self, invocation: Invocation, parent_ctx,
              traced: bool) -> None:
        """One-way send of an announcement down the first path."""
        path = self._select_path(invocation.qos)[0]
        span = NULL_SPAN
        if traced:
            span = self.nucleus.tracer.span(
                "transport.post", "transport", parent_ctx,
                node=self.nucleus.node_address,
                tags={"to": path.node})
        if span is not NULL_SPAN:
            invocation.context.trace = span.context
        self.network.post(self.nucleus.node_address, path.node,
                          self._encode(invocation, path), kind="invoke")
        span.finish()

    def _on_path(self, invocation: Invocation, path: AccessPath,
                 policy: RetryPolicy, gate: RetryGate, breaker,
                 failed: Dict[Verdict, Exception], parent_ctx,
                 traced: bool) -> Optional[Termination]:
        """The attempts one access path gets; ``None`` once the path is
        spent (dead, or lossy to the last attempt) and the next one
        should be tried — the error is left in *failed*."""
        tracer = self.nucleus.tracer
        gate.first(path.node)
        for attempt in range(policy.max_attempts):
            gate.check("before completion")
            net_span = NULL_SPAN
            try:
                # One span per network attempt, opened before
                # marshalling so the envelope carries *its* context:
                # the server span on the far side then nests under
                # the network leg.  Retries show up as sibling
                # net.request spans with increasing attempt tags.
                if traced:
                    net_span = tracer.span(
                        "net.request", "net", parent_ctx,
                        node=self.nucleus.node_address,
                        tags={"to": path.node, "attempt": attempt,
                              "protocol": path.protocol})
                    if net_span is not NULL_SPAN:
                        invocation.context.trace = net_span
                termination = self._exchange(invocation, path, net_span)
                breaker.record_success()
                gate.check("before the reply arrived")
                return termination
            except Exception as exc:
                rule = classify(exc)
                cause = {}
                if rule.breaker:
                    net_span.tag("error", type(exc).__name__) \
                        .finish(status="unreachable")
                    breaker.record_failure()
                    failed[Verdict.NEXT_TARGET] = exc
                    return None
                if rule.verdict is Verdict.RETRY_HERE:
                    net_span.finish(status="lost")
                    failed[Verdict.RETRY_HERE] = exc
                elif rule.verdict is Verdict.RETRY_LATER:
                    # Shed *before* executing — retrying is always
                    # safe, and overload is a property of the server
                    # rather than the path: back off and retry here,
                    # and never fail over on it.
                    self.busy_retries += 1
                    cause = {"cause": "busy"}
                else:
                    net_span.tag("error", type(exc).__name__) \
                        .finish(status="error")
                    raise
                self.nucleus.resilience.retries += 1
                if attempt + 1 >= policy.max_attempts:
                    if rule.verdict is Verdict.RETRY_LATER:
                        raise
                    return None
                gate.spend(path.node)
                gate.back_off(
                    policy, attempt, self._retry_rng,
                    parent_ctx if traced else None, **cause)

    def _exchange(self, invocation: Invocation, path: AccessPath,
                  net_span) -> Termination:
        """One marshalled round trip down *path*."""
        payload = self._encode(invocation, path)
        reply = self.network.request(
            self.nucleus.node_address, path.node, payload,
            protocol=path.protocol)
        if net_span is not NULL_SPAN:
            transit = self.network.last_transit
            tags = net_span.tags
            tags["out_ms"] = transit.out_ms
            tags["back_ms"] = transit.back_ms
            tags["bytes_back"] = transit.bytes_back
            net_span.finish()
        if len(reply) < REUSE_MIN_BYTES:
            return decode_reply(
                get_format(path.wire_format), reply,
                self.capsule.marshaller, path.node)
        return self._replies.get(reply) or self._read_large(reply, path)

    def _read_large(self, reply: bytes, path: AccessPath) -> Termination:
        """Decode a large *reply*, and keep its termination for the
        next byte-identical one when the value lane built it whole."""
        decoded = _loads_reply(get_format(path.wire_format), reply,
                               path.node, ("term",))
        termination = termination_of(decoded, self.capsule.marshaller,
                                     path.node)
        # The identity says the lane produced the termination: a wire
        # tree would have gone through ``unmarshal`` into a new object.
        if decoded["term"] is termination and \
                len(reply) <= REUSE_MAX_BYTES:
            replies = self._replies
            replies[reply] = termination
            self._replies_bytes += len(reply)
            while self._replies_bytes > REUSE_MAX_BYTES:
                self._replies_bytes -= len(replies.popitem(last=False)[0])
        return termination
