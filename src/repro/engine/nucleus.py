"""The nucleus: per-node engineering kernel.

Each node runs one nucleus.  It creates capsules, connects them to the
network (request handler for interrogations, delivery handler for
announcements), owns the node's marshalling in its native wire format, and
charges simulated processing time for every dispatch.  It is also the hook
point where the transparency compiler attaches server-side mechanism
stacks at export time.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.comp.invocation import (
    Invocation,
    InvocationContext,
    InvocationKind,
)
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
from repro.comp.reference import AccessPath, InterfaceRef
from repro.ndr.codec import Marshaller
from repro.ndr.formats import get_format
from repro.net.network import Network, NetworkNode
from repro.resilience.breaker import BreakerRegistry
from repro.resilience.dedup import ReplyCache
from repro.resilience.stats import BatchStats, ResilienceStats
from repro.trace.context import TraceContext
from repro.trace.span import NULL_SPAN, span_name

#: Sentinel reply for undecodable requests (wire-format mismatch).
FORMAT_ERROR_REPLY = b"!FORMAT-MISMATCH"

#: What :meth:`Nucleus._read` holds each field's type to.
_TEXT = {str}
_TEXT_OR_NONE = {str, type(None)}

#: Reads the values an inbound invocation carries.  Unmarshalling never
#: touches the exporter, so one marshaller serves every capsule.
_UNMARSHALLER = Marshaller()

#: Where a request envelope holds application values (``loads``'s
#: *values* path): the single-invocation road decodes them in one walk.
_ARGS = ("inv", "args")

#: Forwards one announcement may follow: one per move in a row, and a
#: cycle of forwards cannot bounce it for ever.
_MAX_FORWARD_HOPS = 4


def _malformed(what: str) -> Dict[str, Any]:
    """The error reply to a request whose structure cannot be served."""
    return {"error": {"code": "marshal", "msg": what}}


class Nucleus:
    """Kernel services for one node."""

    #: Virtual compute charged per message handled.
    processing_ms = 0.05

    def __init__(self, network: Network, node: NetworkNode,
                 domain) -> None:
        self.network = network
        self.node = node
        self.node_address = node.address
        self.domain = domain
        self.capsules: Dict[str, Capsule] = {}
        self.wire = get_format(node.native_format)
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
        #: What every BatchClient issuing from this node did, together.
        self.batching = BatchStats()
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
    def tracer(self):
        """The domain's trace collector, looked up on first use (the
        domain creates it lazily)."""
        tracer = self._tracer
        if tracer is None:
            tracer = self._tracer = self.domain.tracer
        return tracer

    def mint_interface_id(self) -> str:
        return self.domain.mint(f"if.{self.node_address}")

    # -- capsules -------------------------------------------------------------

    def create_capsule(self, name: str) -> Capsule:
        if name in self.capsules:
            raise ValueError(f"capsule {name!r} already exists on "
                             f"{self.node_address}")
        capsule = Capsule(name, self)
        self.capsules[name] = capsule
        return capsule

    def access_paths(self, capsule_name: str):
        """One access path per protocol the node speaks, "rrp" first."""
        protocols = ["rrp"] + sorted(self.node.protocols - {"rrp"})
        return tuple(
            AccessPath(self.node_address, capsule_name,
                       protocol=protocol,
                       wire_format=self.node.native_format)
            for protocol in protocols)

    # -- export-time hooks -------------------------------------------------------

    def compile_server_side(self, capsule: Capsule, interface,
                            constraints) -> None:
        """Delegate to the transparency compiler (lazy import: the compiler
        sits above the engine in the layering)."""
        from repro.transparency.compiler import compile_server_stack

        compile_server_stack(self, capsule, interface, constraints)

    def register_export(self, capsule: Capsule, interface, ref) -> None:
        self.domain.notice_export(self, capsule, interface, ref)

    # -- wire handling -------------------------------------------------------------
    #
    # One door: every inbound invocation is read once (_read), and what
    # it refuses reaches nothing else.  Then one road: server span, count
    # and processing charge, capsule, the *gate* (_arrive: dedup, arrival
    # deadline, admission; _serve: queue wait, post-queue deadline) and
    # _execute.  A batch maps it over its members, every verdict taken at
    # arrival; the one-way kinds skip the gate (nobody hears of a shed).

    @staticmethod
    def _read(obj: Any, where: str = "") -> Invocation:
        """The one reader of an inbound ``inv`` object: each field held to
        the type a well-formed sender writes, list ``args`` unmarshalled
        (a tuple is the value lane's), the trace parsed (a malformed one
        is none), the tree's fresh dicts adopted.  Raises
        :class:`MarshalError` for anything that cannot be served."""
        ctx = obj.get("ctx", {}) if type(obj) is dict else None
        if type(ctx) is not dict:
            raise MarshalError(f"malformed {where}invocation object: "
                               f"it or its ctx is no object")
        credentials = ctx.get("credentials") or {}
        extra = ctx.get("extra") or {}
        via_domains = ctx.get("via_domains", [])
        principal, transaction_id, origin_domain = (
            ctx.get("principal"), ctx.get("transaction_id"),
            ctx.get("origin_domain"))
        args = obj.get("args", ())
        if type(args) is list:
            args = _UNMARSHALLER.unmarshal_args(args)
        interface_id, operation = obj.get("id"), obj.get("op")
        kind, invocation_id = obj.get("kind", ""), obj.get("inv_id", "")
        epoch = obj.get("epoch", 0)
        if (type(credentials) is not dict or type(extra) is not dict
                or type(via_domains) is not list  # text iterates too
                or not {*map(type, via_domains)} <= _TEXT
                or not {type(principal), type(transaction_id),
                        type(origin_domain)} <= _TEXT_OR_NONE
                or type(args) is not tuple
                or type(epoch) is not int  # a bool is no epoch either
                or {type(interface_id), type(operation), type(kind),
                    type(invocation_id)} != _TEXT):
            raise MarshalError(f"malformed {where}invocation object: "
                               f"a field of the wrong type")
        if extra:  # each stamp's own parser holds it to its type
            deadline_of(extra)
            priority_of(extra)
        trace = ctx.get("trace")
        return Invocation(
            interface_id=interface_id, operation=operation, args=args,
            kind=(InvocationKind.ANNOUNCEMENT if kind == "announcement"
                  else InvocationKind.INTERROGATION),
            context=InvocationContext(
                principal=principal, credentials=credentials,
                transaction_id=transaction_id, origin_domain=origin_domain,
                via_domains=tuple(via_domains), extra=extra,
                trace=(None if trace is None
                       else TraceContext.from_wire(trace))),
            epoch=epoch, invocation_id=invocation_id)

    @staticmethod
    def _read_forwarded(fed: Any):
        """``(reference, invocation)`` of a ``fedfwd`` member."""
        fed = fed if type(fed) is dict else {}
        ref = _UNMARSHALLER.unmarshal(fed.get("ref"))
        if type(ref) is not InterfaceRef:
            raise MarshalError("malformed fedfwd: ref is no reference")
        return ref, Nucleus._read(fed.get("inv"), "forwarded ")

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

    def _server_span(self, invocation: Invocation, tags: Dict[str, Any]):
        """Open the server span the invocation's carried trace asks for."""
        trace = invocation.context.trace
        if trace is None:
            return NULL_SPAN
        return self.tracer.span(
            span_name("server", invocation.operation), "server", trace,
            node=self.node_address, tags=tags)

    def _handle_request(self, source: str, payload: bytes) -> bytes:
        try:
            envelope = self.wire.loads(payload, _ARGS)
        except MarshalError:
            return FORMAT_ERROR_REPLY
        if not isinstance(envelope, dict):
            return self.wire.dumps(_malformed("request is not an object"))
        if "batch" in envelope:
            return self._handle_batch(source, envelope)

        # A 2PC control message carries no invocation (and so no span).
        invocation = ref = None
        if "txctl" not in envelope:
            try:
                if "fedfwd" in envelope:
                    ref, invocation = self._read_forwarded(
                        envelope["fedfwd"])
                else:
                    invocation = self._read(envelope.get("inv"))
            except MarshalError as exc:
                return self.wire.dumps(_malformed(str(exc)))
        span = (NULL_SPAN if invocation is None
                else self._server_span(invocation, {"from": source}))

        self.network.scheduler.clock.advance(self._processing_charge())

        capsule = self._capsule_of(envelope)
        if capsule is None:
            span.tag("error", "stale").finish(status="error")
            return self.wire.dumps(self._no_capsule(envelope))

        if invocation is None:
            return self.wire.dumps(
                self._handle_txctl(capsule, envelope["txctl"]))

        if ref is not None:
            reply = self._handle_fedfwd(capsule, ref, invocation, span)
            span.finish("error" if "error" in reply else "ok")
            return self.wire.dumps(reply)

        arrival = self._arrive(invocation)
        if arrival[0] == "cached":
            span.tag("reply_cache", "hit").finish()
            return arrival[1]
        reply, encoded = self._serve(capsule, invocation, arrival, span)
        return self.wire.dumps(reply) if encoded is None else encoded

    def _capsule_of(self, envelope: Dict[str, Any]) -> Optional[Capsule]:
        name = envelope.get("capsule", "")
        # Anything but text names no capsule (a list would not hash).
        return self.capsules.get(name) if type(name) is str else None

    def _no_capsule(self, envelope: Dict[str, Any]) -> Dict[str, Any]:
        return {"error": {"code": "stale",
                          "msg": f"no capsule "
                                 f"{envelope.get('capsule')!r} on "
                                 f"{self.node_address}"}}

    def _handle_fedfwd(self, capsule: Capsule, ref, invocation: Invocation,
                       span) -> Dict[str, Any]:
        """A cross-domain invocation forwarded to this gateway node (lazy
        import: federation sits above the engine in the layering)."""
        from repro.federation.layer import gateway_process

        try:
            if span.span is not None:
                # The gateway's own span nests causally beneath ours.
                invocation.context.trace = span
            return {"term": capsule.marshaller.marshal(gateway_process(
                self.domain, self, capsule, ref, invocation))}
        except OdpError as exc:
            return {"error": encode_error(exc, capsule.marshaller)}

    # -- the gate ------------------------------------------------------------

    def _processing_charge(self) -> float:
        """Per-message compute charge, inflated by any active stall
        window (see ``repro.net.fault.StallWindow``)."""
        return self.processing_ms * \
            self.network.faults.compute_factor(self.node_address)

    def _arrive(self, invocation: Invocation, where: str = ""):
        """The gate's verdict at the arrival instant: ``(verdict, detail,
        deadline)``.  ``"cached"``: detail is the reply this
        retransmission already earned; ``"refused"``: the error to
        answer (expired before consuming admission tokens); ``"shed"``:
        admission's busy error; ``"run"``: the queue wait admission
        imposed, not yet charged to the clock."""
        invocation_id = invocation.invocation_id
        # Retransmission of an invocation we already executed?  Answer
        # from the reply cache instead of dispatching twice.
        cached = (self.reply_cache.lookup(invocation_id)
                  if invocation_id else None)
        if cached is not None:
            return "cached", cached, None
        extra = invocation.context.extra
        deadline_at = deadline_of(extra)
        if self.deadline_gate.expired(deadline_at):
            # Shedding here keeps dead work from displacing live work
            # in the admission queue.
            self.deadline_gate.note_arrival_shed()
            return "refused", InvocationExpiredError(
                f"propagated deadline already passed at {where}arrival"), \
                deadline_at
        if self.admission is None:
            return "run", 0.0, deadline_at
        verdict, detail = self._admit(priority_of(extra))
        return verdict, detail, deadline_at

    def _admit(self, priority: int):
        """Admission's verdict: ``("run", wait)`` or ``("shed", error)``."""
        try:
            return "run", self.admission.admit(priority=priority)
        except ServerBusyError as exc:
            return "shed", exc

    def _serve(self, capsule: Capsule, invocation: Invocation, arrival,
               span, batch_arrived: Optional[float] = None):
        """Act on an :meth:`_arrive` verdict: refuse, or charge the
        queue wait, re-check the deadline and execute.  Returns what
        :meth:`_execute` does.

        ``batch_arrived`` is the instant a batch's verdicts were taken:
        a member's wait counts from there (its predecessors' processing
        already consumed part of it) and it pays its own processing
        charge."""
        verdict, detail, deadline_at = arrival
        if verdict == "shed" and span.span is not None:
            self.tracer.span(
                "perf.shed", "perf", span, node=self.node_address,
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
                    "perf.queue", "perf", span, node=self.node_address,
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
        return self._execute(capsule, invocation, span, deadline_at,
                             gated=True, whole=batch_arrived is None)

    def _refuse(self, capsule: Capsule, error: OdpError,
                span) -> Dict[str, Any]:
        span.tag("error", type(error).__name__).finish(status="error")
        return {"error": encode_error(error, capsule.marshaller)}

    def _execute(self, capsule: Capsule, invocation: Invocation, span,
                 deadline_at: Optional[float] = None, gated: bool = False,
                 whole: bool = False):
        """Adopt the trace, dispatch, marshal, remember the reply.
        Returns ``(reply object, its encoding if one was made)``.

        *gated* says the invocation passed the gate; the one-way kinds
        did not, so they are neither logged as gated executions nor
        cached.  *whole* says the reply object is the whole reply
        message (a single request's, not a batch member's): a
        termination then goes from values to those bytes in one walk
        and the reply object holds it unmarshalled."""
        marshaller = capsule.marshaller
        encoded = None
        if span.span is not None:
            # The executing side continues the trace from our span.
            invocation.context.trace = span
        if gated:
            self.deadline_gate.note_execution(
                invocation.invocation_id, invocation.operation, deadline_at)
        try:
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
        if gated and invocation.invocation_id and "term" in reply:
            if encoded is None:
                encoded = self.wire.dumps(reply)
            self.reply_cache.store(invocation.invocation_id, encoded,
                                   expires_at=deadline_at)
        span.finish("ok" if "term" in reply else "error")
        return reply, encoded

    # -- batches, control messages, one-way kinds -------------------------------

    def _handle_batch(self, source: str,
                      envelope: Dict[str, Any]) -> bytes:
        """Dispatch a multi-invocation message; one combined reply.

        Each member keeps its individual semantics: its own read at the
        door (a malformed member is refused alone), reply-cache dedup by
        ``inv_id`` (a batched execution answers a later single-message
        retransmission and vice versa — the cached bytes are the same
        single-reply encoding), per-member admission, per-member server
        trace spans parented at that member's carried context, and
        per-member processing time.  Only the *message* costs — network
        legs and the demux charge below — are paid once, which is the
        entire point of batching.
        """
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
        arrivals = []
        for obj in members:
            try:
                invocation = self._read(obj, "batch ")
            except MarshalError as exc:
                arrivals.append((None, ("refused", exc, None)))
            else:
                arrivals.append((invocation,
                                 self._arrive(invocation, "batch ")))
        replies = []
        for invocation, arrival in arrivals:
            if arrival[0] == "cached":
                replies.append(self.wire.loads(arrival[1]))
                continue
            span = (NULL_SPAN if invocation is None else self._server_span(
                invocation, {"from": source, "batched": True}))
            replies.append(self._serve(capsule, invocation, arrival, span,
                                       arrived)[0])
        return self.wire.dumps({"replies": replies})

    def _handle_txctl(self, capsule, control: Any) -> Dict[str, Any]:
        """Answer a 2PC prepare/commit/abort from a remote coordinator."""
        if not isinstance(control, dict):
            return _malformed("txctl is not an object")
        iface = control.get("iface", "")
        phase, tx = control.get("phase", ""), control.get("tx", "")
        if {type(iface), type(phase), type(tx)} != _TEXT:
            return _malformed("txctl iface/phase/tx is not text")
        interface = capsule.interfaces.get(iface)
        if interface is None:
            return {"txr": {"ok": False, "msg": "interface gone"}}
        layer = interface.annotations.get("concurrency_layer")
        if layer is None:
            return {"txr": {"ok": False,
                            "msg": "interface has no concurrency control"}}
        ok, msg = layer.txctl(phase, tx)
        return {"txr": {"ok": ok, "msg": msg}}

    def _one_way_envelope(self, message) -> Dict[str, Any]:
        """The envelope of a one-way message; an empty one, which names
        no capsule and holds no invocation, when it is no object."""
        try:
            envelope = self.wire.loads(message.payload)
        except MarshalError:
            return {}
        return envelope if isinstance(envelope, dict) else {}

    def _handle_async_request(self, message) -> None:
        """Split-phase interrogation: dispatch, then post the reply back
        to the caller's reply router (see repro.engine.futures).  One
        that names no capsule, reply address or call id as text cannot
        be answered and is dropped; a malformed invocation is answered
        with the error and not run."""
        envelope = self._one_way_envelope(message)
        capsule = self._capsule_of(envelope)
        reply_to = envelope.get("reply_to")
        call_id = envelope.get("call_id", "")
        if capsule is None or not reply_to or \
                {type(reply_to), type(call_id)} != _TEXT:
            return
        try:
            invocation = self._read(envelope.get("inv"))
        except MarshalError as exc:
            reply = _malformed(str(exc))
        else:
            span = self._server_span(invocation, {"kind": "async"})
            self.network.scheduler.clock.advance(self._processing_charge())
            reply, _ = self._execute(capsule, invocation, span)
        reply["call_id"] = call_id
        try:
            reply_wire = get_format(
                self.network.node(reply_to).native_format)
        except OdpError:
            return
        self.network.post(self.node_address, reply_to,
                          reply_wire.dumps(reply), kind="reply")

    def _handle_announcement(self, message) -> None:
        """One-way invocation: spawn the work, report nothing (section 5.1)."""
        envelope = self._one_way_envelope(message)
        try:
            invocation = self._read(envelope.get("inv"))
        except MarshalError:
            return  # nobody is waiting to hear so
        span = self._server_span(invocation, {"kind": "announcement"})
        self.network.scheduler.clock.advance(self._processing_charge())
        capsule = self._capsule_of(envelope)
        if capsule is None:
            span.finish(status="error")
            return
        forward = (None if invocation.interface_id in capsule.interfaces
                   else capsule.forwards.get(invocation.interface_id))
        if forward is not None:
            # The object moved and left a forward (section 5.4).  No
            # reply can carry the hint back to the sender, so the
            # announcement itself follows the forward, one hop.
            hops = int(message.headers.get("hops", "0")) + 1
            if hops > _MAX_FORWARD_HOPS:
                span.tag("error", "hops").finish(status="error")
                return
            path = forward.primary_path()
            envelope["capsule"] = path.capsule
            self.network.post(self.node_address, path.node,
                              get_format(path.wire_format).dumps(envelope),
                              kind="invoke", headers={"hops": str(hops)})
            span.tag("forwarded", path.node).finish()
            return
        # Announcements cannot report failure: the reply is dropped.
        self._execute(capsule, invocation, span)
