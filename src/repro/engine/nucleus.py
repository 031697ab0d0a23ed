"""The nucleus: per-node engineering kernel.

Each node runs one nucleus.  It creates capsules, connects them to the
network (request handler for interrogations, delivery handler for
announcements), owns the node's marshalling in its native wire format, and
charges simulated processing time for every dispatch.  It is also the hook
point where the transparency compiler attaches server-side mechanism
stacks at export time.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from repro.comp.invocation import (
    Invocation,
    InvocationContext,
    InvocationKind,
)
from repro.comp.outcomes import Termination
from repro.engine.capsule import Capsule
from repro.engine.wire_errors import encode_error
from repro.errors import (
    InvocationExpiredError,
    MarshalError,
    OdpError,
    ServerBusyError,
)
from repro.overload.budget import RetryBudgetRegistry
from repro.overload.deadline import DeadlineGate, deadline_of, priority_of
from repro.comp.reference import AccessPath
from repro.ndr.codec import Marshaller
from repro.ndr.formats import get_format
from repro.net.network import Network, NetworkNode
from repro.resilience.breaker import BreakerRegistry
from repro.resilience.dedup import ReplyCache
from repro.resilience.stats import ResilienceStats
from repro.trace.collector import NULL_COLLECTOR
from repro.trace.context import TraceContext
from repro.trace.span import NULL_SPAN

#: Sentinel reply for undecodable requests (wire-format mismatch).
FORMAT_ERROR_REPLY = b"!FORMAT-MISMATCH"

#: What reading a decodable-but-misshapen envelope raises: a missing
#: key, a scalar where an object or list belongs, an unparsable stamp.
_MALFORMED = (AttributeError, KeyError, TypeError, ValueError)

#: Stands in for an absent ``ctx`` / ``extra`` object; never written.
_NO_CTX: Mapping[str, Any] = {}

#: Where a request envelope holds application values (``loads``'s
#: *values* path): the single-invocation road decodes them in one walk.
_ARGS = ("inv", "args")


def _malformed(what: str) -> Dict[str, Any]:
    """The error reply to a request whose structure cannot be served."""
    return {"error": {"code": "marshal", "msg": what}}


class Nucleus:
    """Kernel services for one node."""

    def __init__(self, network: Network, node: NetworkNode,
                 domain=None, processing_ms: float = 0.05) -> None:
        self.network = network
        self.node = node
        self.domain = domain
        self.processing_ms = processing_ms
        self.capsules: Dict[str, Capsule] = {}
        self.wire = get_format(node.native_format)
        self.requests_handled = 0
        self.announcements_handled = 0
        #: Server side of the resilience layer: retransmissions of an
        #: already-executed invocation answer from here (exactly-once).
        self.reply_cache = ReplyCache(clock=network.scheduler.clock)
        #: Client side: per-(node, protocol) breakers and counters for
        #: every transport this node's capsules open.
        self.breakers = BreakerRegistry(network.scheduler.clock)
        self.resilience = ResilienceStats()
        #: Optional admission controller guarding the dispatch path
        #: (see repro.perf.admission).  None: accept everything, which
        #: keeps default-seeded histories byte-identical to older runs.
        self.admission = None
        #: Server-side deadline gate (repro.overload): sheds work whose
        #: propagated deadline has already expired, before it consumes
        #: admission tokens, and again after any queue wait.
        self.deadline_gate = DeadlineGate(network.scheduler.clock)
        #: Client-side retry budgets shared by every retrying layer this
        #: node's capsules stack (transport, batcher, group/shard/lease
        #: clients).  Observe-only until a run enables enforcement.
        self.retry_budgets = RetryBudgetRegistry()
        #: When True, channels and batchers issuing from this node stamp
        #: the absolute QoS deadline (and any non-default priority) into
        #: the invocation context.  Off by default so the default wire
        #: format stays byte-identical to the pre-overload platform.
        self.deadline_propagation = False
        #: Codec plan caches opened against this node (transports and
        #: batchers register here) — management visibility only.
        self.plan_caches = []
        #: Per-capsule marshaller reuse (see :meth:`marshaller_for`).
        self._marshallers = {}
        #: BatchClients issuing from this node, for the same reason.
        self.batchers = []
        #: TransportLayers opened by this node's capsules, likewise.
        self.transports = []
        #: RelocationLayers attached by this node's channels — the
        #: monitor aggregates their chase/repair churn counters.
        self.relocation_layers = []
        #: The node's caching LeaseClient (repro.lease), or None when
        #: this node does no client-side caching.  Attached by
        #: ``LeaseAuthority.attach_client``; every channel the node's
        #: capsules open consults it on the read path.
        self.lease_client = None
        self._tracer = None
        node.on_request(self._handle_request)
        node.on_deliver("invoke", self._handle_announcement)
        node.on_deliver("ainvoke", self._handle_async_request)

    # -- identity -------------------------------------------------------------

    @property
    def node_address(self) -> str:
        return self.node.address

    @property
    def tracer(self):
        """The domain's trace collector (a no-op one outside domains)."""
        tracer = self._tracer
        if tracer is None:
            tracer = (self.domain.tracer if self.domain is not None
                      else NULL_COLLECTOR)
            self._tracer = tracer
        return tracer

    def mint_interface_id(self) -> str:
        if self.domain is not None:
            return self.domain.mint(f"if.{self.node.address}")
        return f"if.{self.node.address}-{self.requests_handled}-" \
               f"{len(self.capsules)}-{sum(len(c.interfaces) for c in self.capsules.values())}"

    # -- capsules -------------------------------------------------------------

    def create_capsule(self, name: str) -> Capsule:
        if name in self.capsules:
            raise ValueError(f"capsule {name!r} already exists on "
                             f"{self.node.address}")
        capsule = Capsule(name, self)
        self.capsules[name] = capsule
        return capsule

    def capsule(self, name: str) -> Capsule:
        return self.capsules[name]

    def access_paths(self, capsule_name: str):
        """One access path per protocol the node speaks, "rrp" first."""
        protocols = ["rrp"] + sorted(self.node.protocols - {"rrp"})
        return tuple(
            AccessPath(self.node.address, capsule_name,
                       protocol=protocol,
                       wire_format=self.node.native_format)
            for protocol in protocols)

    def marshaller_for(self, capsule: Capsule) -> Marshaller:
        # One marshaller per capsule for the nucleus' own hot paths;
        # Marshaller state is just the exporter hook and two counters,
        # so reuse is safe and saves an allocation per request leg.
        marshaller = self._marshallers.get(capsule)
        if marshaller is None:
            marshaller = Marshaller(exporter=capsule.implicit_export)
            self._marshallers[capsule] = marshaller
        return marshaller

    # -- export-time hooks -------------------------------------------------------

    def compile_server_side(self, capsule: Capsule, interface,
                            constraints) -> None:
        """Delegate to the transparency compiler (lazy import: the compiler
        sits above the engine in the layering)."""
        from repro.transparency.compiler import compile_server_stack

        compile_server_stack(self, capsule, interface, constraints)

    def register_export(self, capsule: Capsule, interface, ref) -> None:
        if self.domain is not None:
            self.domain.notice_export(self, capsule, interface, ref)

    # -- wire handling -------------------------------------------------------------
    #
    # Every inbound kind takes the same road: a *gate* (_arrive: dedup,
    # arrival deadline, admission verdict; _serve: queue wait,
    # post-queue deadline) and one *execute* step (_execute).  A single
    # request is that road once; a batch is a map over its members with
    # every verdict taken at the batch's arrival instant; the one-way
    # kinds have nobody to report a shed to, so they skip the gate.

    def decode_invocation(self, capsule: Capsule,
                           obj: Dict[str, Any]) -> Invocation:
        marshaller = self.marshaller_for(capsule)
        try:
            ctx_obj = obj.get("ctx", {})
            # The decoded tree is freshly built by ``loads`` and owned
            # by this invocation alone, so its dicts are adopted as-is —
            # no defensive copies on the decode path.
            credentials = ctx_obj.get("credentials") or {}
            extra = ctx_obj.get("extra") or {}
            if type(credentials) is not dict or type(extra) is not dict:
                raise TypeError("context credentials/extra not objects")
            via_domains = ctx_obj.get("via_domains", [])
            if type(via_domains) is not list:  # text would iterate too
                raise TypeError("via_domains is not a list")
            context = InvocationContext(
                principal=ctx_obj.get("principal"),
                credentials=credentials,
                transaction_id=ctx_obj.get("transaction_id"),
                origin_domain=ctx_obj.get("origin_domain"),
                via_domains=tuple(via_domains),
                extra=extra,
            )
            # A tuple came through the decoder's value lane and is the
            # argument values themselves; a list is still the wire tree.
            args = obj.get("args", ())
            if type(args) is list:
                args = marshaller.unmarshal_args(args)
            elif type(args) is not tuple:
                raise TypeError("args is not a list")
            interface_id, operation = obj["id"], obj["op"]
            epoch = obj.get("epoch", 0)
            if (type(interface_id) is not str or type(operation) is not str
                    or type(epoch) is not int):  # a bool is no epoch either
                raise TypeError("id/op is not text or epoch no integer")
            return Invocation(
                interface_id=interface_id,
                operation=operation,
                args=args,
                kind=(InvocationKind.ANNOUNCEMENT
                      if obj.get("kind") == "announcement"
                      else InvocationKind.INTERROGATION),
                context=context,
                epoch=epoch,
                invocation_id=obj.get("inv_id", ""),
            )
        except _MALFORMED as exc:
            # Decodable bytes, wrong shape: a typed wire error, never a
            # crash in whoever called Network.request.
            raise MarshalError(
                f"malformed invocation object: {exc!r}") from exc

    @staticmethod
    def encode_context(context: InvocationContext) -> Dict[str, Any]:
        encoded = {
            "principal": context.principal,
            "credentials": dict(context.credentials),
            "transaction_id": context.transaction_id,
            "origin_domain": context.origin_domain,
            "via_domains": list(context.via_domains),
            "extra": dict(context.extra),
        }
        trace = context.trace
        if trace is not None and trace.sampled and trace.trace_id:
            encoded["trace"] = trace.to_wire()
        return encoded

    def _server_span(self, obj: Any, tags: Dict[str, Any]):
        """Open the server span an invocation object's carried trace
        asks for; returns ``(span, wire trace context)``."""
        try:
            trace_ctx = TraceContext.from_wire(obj["ctx"].get("trace"))
        except _MALFORMED:
            trace_ctx = None
        if trace_ctx is None:
            return NULL_SPAN, None
        return self.tracer.span(
            f"server:{obj.get('op', 'request')}", "server", trace_ctx,
            node=self.node.address, tags=tags), trace_ctx

    def _handle_request(self, source: str, payload: bytes) -> bytes:
        try:
            envelope = self.wire.loads(payload, _ARGS)
        except MarshalError:
            return FORMAT_ERROR_REPLY
        if not isinstance(envelope, dict):
            return self.wire.dumps(_malformed("request is not an object"))
        if "batch" in envelope:
            return self._handle_batch(source, envelope)

        inv_obj = envelope.get("inv")
        span, trace_ctx = NULL_SPAN, None
        if b"trace" in payload:  # cheap pre-filter: no trace, no spans
            traced = inv_obj
            if traced is None and isinstance(envelope.get("fedfwd"), dict):
                traced = envelope["fedfwd"].get("inv")
            span, trace_ctx = self._server_span(traced, {"from": source})

        self.requests_handled += 1
        self.network.scheduler.clock.advance(self._processing_charge())

        capsule = self._capsule_of(envelope)
        if capsule is None:
            span.tag("error", "stale").finish(status="error")
            return self.wire.dumps(self._no_capsule(envelope))

        if "txctl" in envelope:
            reply = self._handle_txctl(capsule, envelope["txctl"])
            span.finish()
            return self.wire.dumps(reply)

        if "fedfwd" in envelope:
            reply = self._handle_fedfwd(capsule, envelope["fedfwd"], span)
            span.finish("error" if "error" in reply else "ok")
            return self.wire.dumps(reply)

        arrival = self._arrive(inv_obj)
        if arrival[0] == "cached":
            span.tag("reply_cache", "hit").finish()
            return arrival[1]
        reply, encoded = self._serve(capsule, inv_obj, arrival, span,
                                     trace_ctx)
        return self.wire.dumps(reply) if encoded is None else encoded

    def _capsule_of(self, envelope: Dict[str, Any]) -> Optional[Capsule]:
        try:
            return self.capsules.get(envelope.get("capsule", ""))
        except TypeError:  # an unhashable name names no capsule
            return None

    def _no_capsule(self, envelope: Dict[str, Any]) -> Dict[str, Any]:
        return {"error": {"code": "stale",
                          "msg": f"no capsule "
                                 f"{envelope.get('capsule')!r} on "
                                 f"{self.node.address}"}}

    def _handle_fedfwd(self, capsule: Capsule, fed: Any,
                       span) -> Dict[str, Any]:
        """A cross-domain invocation forwarded to this gateway node."""
        if self.domain is None:
            return {"error": {"code": "federation",
                              "msg": "node belongs to no domain"}}
        if not (isinstance(fed, dict) and isinstance(fed.get("inv"), dict)):
            return _malformed("fedfwd carries no invocation object")
        if span.span is not None:
            # Re-parent the forwarded trail under our span, so the
            # gateway's own span nests causally beneath it.
            fed["inv"].setdefault("ctx", {})["trace"] = \
                span.context.to_wire()
        return self.domain.handle_fedfwd(self, capsule, fed)

    # -- the gate ------------------------------------------------------------

    def _processing_charge(self) -> float:
        """Per-message compute charge, inflated by any active stall
        window (see ``repro.net.fault.StallWindow``)."""
        return self.processing_ms * \
            self.network.faults.compute_factor(self.node_address)

    def _arrive(self, obj: Any, where: str = ""):
        """The gate's verdict at the arrival instant: ``(verdict, detail,
        invocation id, deadline)``.  ``"cached"``: detail is the reply
        this retransmission already earned; ``"refused"``: the error to
        answer (malformed, or expired before consuming admission
        tokens); ``"shed"``: admission's busy error; ``"run"``: the
        queue wait admission imposed, not yet charged to the clock."""
        try:
            invocation_id = obj.get("inv_id", "")
            # Retransmission of an invocation we already executed?
            # Answer from the reply cache instead of dispatching twice.
            cached = (self.reply_cache.lookup(invocation_id)
                      if invocation_id else None)
            extra = (obj.get("ctx") or _NO_CTX).get("extra") or _NO_CTX
            deadline_at = deadline_of(extra)
            priority = (priority_of(extra) if self.admission is not None
                        else None)
        except _MALFORMED as exc:
            return "refused", MarshalError(
                f"malformed {where}invocation object: {exc!r}"), "", None
        if cached is not None:
            return "cached", cached, invocation_id, deadline_at
        if self.deadline_gate.expired(deadline_at):
            # Shedding here keeps dead work from displacing live work
            # in the admission queue.
            self.deadline_gate.note_arrival_shed()
            return "refused", InvocationExpiredError(
                f"propagated deadline already passed at {where}arrival"), \
                invocation_id, deadline_at
        if priority is None:
            return "run", 0.0, invocation_id, deadline_at
        try:
            return "run", self.admission.admit(priority=priority), \
                invocation_id, deadline_at
        except ServerBusyError as exc:
            return "shed", exc, invocation_id, deadline_at

    def _serve(self, capsule: Capsule, obj: Any, arrival, span, trace_ctx,
               batch_arrived: Optional[float] = None):
        """Act on an :meth:`_arrive` verdict: refuse, or charge the
        queue wait, re-check the deadline and execute.  Returns what
        :meth:`_execute` does.

        ``batch_arrived`` is the instant a batch's verdicts were taken:
        a member's wait counts from there (its predecessors' processing
        already consumed part of it) and it pays its own processing
        charge."""
        verdict, detail, invocation_id, deadline_at = arrival
        if verdict == "shed" and span.span is not None:
            self.tracer.span(
                "perf.shed", "perf", span, node=self.node.address,
                tags={"shed_total": self.admission.shed},
            ).finish(status="shed")
        if verdict != "run":
            return self._refuse(capsule, detail, span), None
        # Queueing delay is part of the measured server latency.
        clock = self.network.scheduler.clock
        where = ""
        if batch_arrived is not None:
            where = "batch "
            detail = batch_arrived + detail - clock.now
        if detail > 0.0:
            queue_span = NULL_SPAN
            if span.span is not None:
                queue_span = self.tracer.span(
                    "perf.queue", "perf", span, node=self.node.address,
                    tags={"wait_ms": round(detail, 3)})
            clock.advance(detail)
            queue_span.finish()
        if batch_arrived is not None:
            clock.advance(self._processing_charge())
        if self.deadline_gate.expired(deadline_at):
            # The queue wait outlived the deadline: still shed —
            # nothing may start executing past its deadline.
            self.deadline_gate.note_post_queue_shed()
            return self._refuse(capsule, InvocationExpiredError(
                f"propagated deadline passed during {where}queue wait"),
                span), None
        return self._execute(capsule, obj, span, trace_ctx,
                             invocation_id, deadline_at,
                             whole=batch_arrived is None)

    def _refuse(self, capsule: Capsule, error: OdpError,
                span) -> Dict[str, Any]:
        span.tag("error", type(error).__name__).finish(status="error")
        return {"error": encode_error(error,
                                      self.marshaller_for(capsule))}

    def _execute(self, capsule: Capsule, obj: Any, span, trace_ctx,
                 invocation_id: Optional[str] = None,
                 deadline_at: Optional[float] = None,
                 whole: bool = False):
        """Decode, adopt the trace, dispatch, marshal, remember the reply.
        Returns ``(reply object, its encoding if one was made)``.

        ``invocation_id`` is ``None`` for the one-way kinds: they passed
        no gate, so they are neither logged as gated executions nor
        cached.  *whole* says the reply object is the whole reply
        message (a single request's, not a batch member's): a
        termination then goes from values to those bytes in one walk
        and the reply object holds it unmarshalled."""
        marshaller = self.marshaller_for(capsule)
        encoded = None
        try:
            unmarshal_span = NULL_SPAN
            if span.span is not None and self.tracer.verbose:
                unmarshal_span = self.tracer.span(
                    "ndr.unmarshal", "ndr", span,
                    node=self.node.address)
            invocation = self.decode_invocation(capsule, obj)
            if unmarshal_span is not NULL_SPAN:
                unmarshal_span.finish()
            # The executing side continues the trace from our span
            # (keep the wire context when we collect nothing here).
            if span.span is not None:
                invocation.context.trace = span
            elif trace_ctx is not None:
                invocation.context.trace = trace_ctx
            if invocation_id is not None:
                self.deadline_gate.note_execution(
                    invocation_id, invocation.operation, deadline_at)
            termination = capsule.dispatch(invocation)
            if whole:
                reply = {"term": termination}
                encoded = self.wire.dumps(reply, marshaller)
            else:
                reply = {"term": marshaller.marshal(termination)}
        except OdpError as exc:
            reply = {"error": encode_error(exc, marshaller)}
            span.tag("error", type(exc).__name__)
        # Cache successful replies only: errors are regenerated so a
        # retry after the fault was repaired (relocation, lock release)
        # is not answered with a stale failure.
        if invocation_id and "term" in reply:
            if encoded is None:
                encoded = self.wire.dumps(reply)
            self.reply_cache.store(invocation_id, encoded,
                                   expires_at=deadline_at)
        span.finish("ok" if "term" in reply else "error")
        return reply, encoded

    # -- batches, control messages, one-way kinds -------------------------------

    def _handle_batch(self, source: str,
                      envelope: Dict[str, Any]) -> bytes:
        """Dispatch a multi-invocation message; one combined reply.

        Each member keeps its individual semantics: reply-cache dedup by
        ``inv_id`` (a batched execution answers a later single-message
        retransmission and vice versa — the cached bytes are the same
        single-reply encoding), per-member admission, per-member server
        trace spans parented at that member's carried context, and
        per-member processing time.  Only the *message* costs — network
        legs and the demux charge below — are paid once, which is the
        entire point of batching.
        """
        self.requests_handled += 1
        self.network.scheduler.clock.advance(self._processing_charge())
        capsule = self._capsule_of(envelope)
        if capsule is None:
            return self.wire.dumps(self._no_capsule(envelope))
        members = envelope.get("batch")
        if not isinstance(members, list):
            return self.wire.dumps(_malformed("malformed batch envelope"))
        # Every member takes its verdict at the batch's arrival instant:
        # reply-cache hits are answered without consuming admission
        # tokens (they already executed), and every remaining member
        # takes its admission verdict *now*, before any member's queue
        # wait or processing advances the clock — the whole batch
        # arrives at once, so later members must see the queue their
        # predecessors just built, not a bucket refilled by their waits.
        # This is what makes a bounded queue actually overflow (and
        # shed) under a burst instead of serialising it invisibly.
        arrived = self.network.scheduler.clock.now
        arrivals = [self._arrive(obj, "batch ") for obj in members]
        replies = []
        for obj, arrival in zip(members, arrivals):
            if arrival[0] == "cached":
                replies.append(self.wire.loads(arrival[1]))
                continue
            span, trace_ctx = self._server_span(
                obj, {"from": source, "batched": True})
            replies.append(self._serve(capsule, obj, arrival, span,
                                       trace_ctx, arrived)[0])
        return self.wire.dumps({"replies": replies})

    def _handle_txctl(self, capsule, control: Any) -> Dict[str, Any]:
        """Answer a 2PC prepare/commit/abort from a remote coordinator."""
        if not isinstance(control, dict):
            return _malformed("txctl is not an object")
        interface = capsule.interfaces.get(control.get("iface", ""))
        if interface is None:
            return {"txr": {"ok": False, "msg": "interface gone"}}
        layer = interface.annotations.get("concurrency_layer")
        if layer is None:
            return {"txr": {"ok": False,
                            "msg": "interface has no concurrency control"}}
        ok, msg = layer.txctl(control.get("phase", ""),
                              control.get("tx", ""))
        return {"txr": {"ok": ok, "msg": msg}}

    def _handle_async_request(self, message) -> None:
        """Split-phase interrogation: dispatch, then post the reply back
        to the caller's reply router (see repro.engine.futures)."""
        try:
            envelope = self.wire.loads(message.payload)
        except MarshalError:
            return
        if not isinstance(envelope, dict):
            return
        capsule = self._capsule_of(envelope)
        reply_to = envelope.get("reply_to", "")
        if capsule is None or not reply_to:
            return
        inv_obj = envelope.get("inv")
        span, trace_ctx = self._server_span(inv_obj, {"kind": "async"})
        self.network.scheduler.clock.advance(self._processing_charge())
        reply, _ = self._execute(capsule, inv_obj, span, trace_ctx)
        reply["call_id"] = envelope.get("call_id", "")
        try:
            reply_wire = get_format(
                self.network.node(reply_to).native_format)
        except OdpError:
            return
        self.network.post(self.node_address, reply_to,
                          reply_wire.dumps(reply), kind="reply")

    def _handle_announcement(self, message) -> None:
        """One-way invocation: spawn the work, report nothing (section 5.1)."""
        try:
            envelope = self.wire.loads(message.payload)
        except MarshalError:
            return
        if not isinstance(envelope, dict):
            return
        self.announcements_handled += 1
        inv_obj = envelope.get("inv")
        span, trace_ctx = self._server_span(inv_obj,
                                            {"kind": "announcement"})
        self.network.scheduler.clock.advance(self._processing_charge())
        capsule = self._capsule_of(envelope)
        if capsule is None:
            span.finish(status="error")
            return
        # Announcements cannot report failure: the reply is dropped.
        self._execute(capsule, inv_obj, span, trace_ctx)

    def __repr__(self) -> str:
        return (f"Nucleus({self.node.address}, "
                f"{len(self.capsules)} capsules)")
