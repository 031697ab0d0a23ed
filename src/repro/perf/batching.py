"""Adaptive invocation batching: many interrogations, one message.

Every synchronous proxy call pays a full network round trip — with the
default latency model that is ~1ms of propagation per leg regardless of
payload size, so sustained invocation throughput from one client is
capped by message count, not bytes.  The paper's growth argument
(section 2) demands organisation-scale traffic; the fix is the same one
every production RPC stack ships: coalesce concurrent outstanding
invocations to the same (node, protocol) path into a single
multi-invocation wire message.

:class:`BatchClient` is the client half.  ``call()`` returns a
:class:`~repro.engine.futures.Future` immediately and enqueues the
invocation; a queue flushes when it reaches ``max_batch`` or when the
``linger_ms`` timer fires, whichever is first (the size/linger policy).
The flush marshals each member with the shared codec plan cache, wraps
them into one ``{"batch": [...], "capsule": ...}`` envelope, and drives
one synchronous exchange with the full resilience treatment:

* the per-(node, protocol) circuit breaker is consulted before the
  send and fed by unreachable outcomes, exactly like the transport;
* message loss retransmits the *whole batch* under the QoS retry
  policy — safe because every member carries its own ``invocation_id``
  and the server's reply cache answers already-executed members from
  memory (exactly-once per member, not per message);
* a member shed by admission control resolves its future with the
  retryable :class:`~repro.errors.ServerBusyError` — by the shed
  contract it definitely did not execute, so the caller may simply
  re-issue it;
* trace shape: one ``perf.batch`` span per flush, one ``net.request``
  span per wire attempt, and a ``perf.invocation`` child span per
  member whose context travels in the member's ``ctx`` — server-side
  spans nest under the member that caused them, not under the batch.

Interrogations only: announcements already coalesce trivially (they are
one-way posts) and have nothing to reply with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.comp.invocation import InvocationContext, QoS
from repro.comp.reference import InterfaceRef
from repro.engine.futures import Future
from repro.engine.nucleus import Nucleus
from repro.engine.remote import open_reply, termination_of
from repro.errors import (
    MessageLostError,
    NodeUnreachableError,
    OdpError,
    ProtocolMismatchError,
)
from repro.ndr.formats import get_format
from repro.ndr.plancache import PLANS, encode_batch
from repro.overload.deadline import deadline_of, earliest_deadline, stamp
from repro.resilience.retry import RetryGate, RetryPolicy, Verdict, classify
from repro.trace.context import current_trace
from repro.trace.span import NULL_SPAN


@dataclass(frozen=True)
class BatchPolicy:
    """The size/linger coalescing policy of one batch client."""

    #: Flush as soon as a queue holds this many invocations.
    max_batch: int = 8
    #: Virtual ms a non-full queue lingers before flushing anyway.
    linger_ms: float = 0.5


class _Pending:
    """One enqueued invocation awaiting its flush."""

    __slots__ = ("ref", "operation", "args", "invocation_id", "context",
                 "future")

    def __init__(self, ref, operation, args, invocation_id, context,
                 future) -> None:
        self.ref = ref
        self.operation = operation
        self.args = args
        self.invocation_id = invocation_id
        self.context = context
        self.future = future


class BatchClient:
    """Coalesces interrogations from one client capsule into batches."""

    def __init__(self, capsule, policy: Optional[BatchPolicy] = None,
                 qos: Optional[QoS] = None) -> None:
        self.capsule = capsule
        self.nucleus: Nucleus = capsule.nucleus
        self.network = self.nucleus.network
        self.policy = policy or BatchPolicy()
        self.qos = qos or QoS.DEFAULT
        self._retry_rng = self.network.rng.fork(
            f"batch-retry:{self.nucleus.node_address}:{capsule.name}")
        #: (node, protocol, capsule, wire_format) -> pending list.
        self._queues: Dict[Tuple[str, str, str, str], List[_Pending]] = {}
        #: Per-key flush generation, so a lingering timer that fires
        #: after a size-triggered flush finds nothing to do.
        self._generations: Dict[Tuple[str, str, str, str], int] = {}
        self.calls = 0
        self.batches_sent = 0
        self.invocations_batched = 0
        self.retransmits = 0
        self.busy_failures = 0
        self.flushes_on_size = 0
        self.flushes_on_linger = 0
        #: The node's totals over all its batch clients, which the
        #: monitor folds into ``domain_report()["perf"]``.
        self._totals = self.nucleus.batching
        self._totals.batchers += 1

    # -- enqueue ------------------------------------------------------------

    def call(self, ref: InterfaceRef, operation: str, *args,
             principal: Optional[str] = None) -> Future:
        """Enqueue one interrogation; returns its Future immediately."""
        self.calls += 1
        self._totals.calls += 1
        path = ref.primary_path()
        key = (path.node, path.protocol, path.capsule, path.wire_format)
        context = InvocationContext(principal=principal)
        # Deadline propagation: the batch path stamps exactly what the
        # channel mouth would, so a batched member's server-side gate
        # treatment is identical to its unbatched twin's.
        if self.nucleus.deadline_propagation:
            stamp(context.extra, self.qos, self.network.scheduler.now)
        domain = self.nucleus.domain
        context.origin_domain = domain.name
        if principal is not None:
            context.credentials = domain.credentials_for(principal)
        future = Future(self.capsule.next_invocation_id())
        entry = _Pending(ref, operation, tuple(args), future.call_id,
                         context, future)
        queue = self._queues.setdefault(key, [])
        queue.append(entry)
        if len(queue) >= self.policy.max_batch:
            self.flushes_on_size += 1
            self._flush_key(key)
        elif len(queue) == 1:
            generation = self._generations.get(key, 0)
            self.network.scheduler.after(
                self.policy.linger_ms,
                lambda: self._linger_fire(key, generation),
                label=f"batch-linger:{key[0]}")
        return future

    def _linger_fire(self, key, generation: int) -> None:
        if (self._generations.get(key, 0) == generation
                and self._queues.get(key)):
            self.flushes_on_linger += 1
            self._flush_key(key)

    def flush(self) -> None:
        """Flush every non-empty queue now (deterministic order)."""
        for key in sorted(self._queues):
            if self._queues[key]:
                self._flush_key(key)

    # -- the exchange -------------------------------------------------------

    def _flush_key(self, key) -> None:
        node, protocol, capsule_name, wire_format = key
        entries = self._queues.get(key) or []
        self._queues[key] = []
        self._generations[key] = self._generations.get(key, 0) + 1
        if not entries:
            return
        self.batches_sent += 1
        self.invocations_batched += len(entries)
        self._totals.batches_sent += 1
        self._totals.invocations_batched += len(entries)

        tracer = self.nucleus.tracer
        ambient = current_trace()
        trace = ambient if ambient is not None else tracer.start_trace()
        batch_span = NULL_SPAN
        if trace is not None and trace.sampled:
            batch_span = tracer.span(
                "perf.batch", "perf", trace,
                node=self.nucleus.node_address,
                tags={"to": node, "size": len(entries),
                      "protocol": protocol})

        fmt = get_format(wire_format)
        marshaller = self.capsule.marshaller
        member_spans = []
        members: List[bytes] = []
        for index, entry in enumerate(entries):
            span = NULL_SPAN
            if batch_span is not NULL_SPAN:
                span = tracer.span(
                    "perf.invocation", "perf", batch_span,
                    node=self.nucleus.node_address,
                    tags={"op": entry.operation, "index": index,
                          "interface": entry.ref.interface_id})
                if span is not NULL_SPAN:
                    entry.context.trace = span.context
            member_spans.append(span)
            members.append(self._encode_member(fmt, capsule_name, entry,
                                               marshaller))
        payload = encode_batch(fmt, capsule_name, members)

        breaker = self.nucleus.breakers.breaker_for(node, protocol)
        if not breaker.allow():
            self.nucleus.resilience.breaker_short_circuits += 1
            error = NodeUnreachableError(
                f"batch to {node}/{protocol}: circuit open")
            self._fail_all(entries, member_spans, error, "rejected")
            batch_span.tag("error", "CircuitOpen").finish(status="rejected")
            return

        stamped = [d for d in (deadline_of(e.context.extra)
                               for e in entries) if d is not None]
        try:
            reply = self._exchange(node, protocol, payload, len(entries),
                                   tracer, batch_span,
                                   min(stamped) if stamped else None)
        except OdpError as error:
            if classify(error).breaker:
                breaker.record_failure()
            self._fail_all(entries, member_spans, error, "error")
            batch_span.tag("error", type(error).__name__) \
                .finish(status="error")
            return
        breaker.record_success()
        self._settle(reply, entries, member_spans, marshaller, fmt, node)
        batch_span.finish()

    def _encode_member(self, fmt, capsule_name: str, entry: _Pending,
                       marshaller) -> bytes:
        plan = PLANS.plan_for(
            fmt, capsule_name, entry.ref.interface_id,
            entry.operation, "interrogation", entry.ref.epoch, True)
        return plan.encode_member_zero(entry.args, entry.context,
                                       entry.invocation_id, marshaller)

    def _exchange(self, node: str, protocol: str, payload: bytes,
                  size: int, tracer, batch_span,
                  deadline_at: Optional[float] = None) -> bytes:
        """One batch round trip with whole-batch retransmission.

        Returns the reply bytes; raises the terminal error when the
        path is dead or the retry allowance (attempts, budget) is
        exhausted.  ``deadline_at`` is the earliest propagated member
        deadline: no retransmission happens past it — the batch then
        fails with the loss it suffered — and backoff waits are clipped
        to it.
        """
        policy = RetryPolicy.from_qos(self.qos)
        gate = RetryGate(
            self.nucleus, "batch", f"batch to {node}",
            earliest_deadline(self.qos, self.network.scheduler.now,
                              deadline_at),
            expiry=MessageLostError, inclusive=True)
        gate.first(node)
        for attempt in range(policy.max_attempts):
            net_span = NULL_SPAN
            if batch_span is not NULL_SPAN:
                net_span = tracer.span(
                    "net.request", "net", batch_span,
                    node=self.nucleus.node_address,
                    tags={"to": node, "attempt": attempt,
                          "protocol": protocol, "batch": size})
            try:
                reply = self.network.request(
                    self.nucleus.node_address, node, payload,
                    protocol=protocol)
            except OdpError as exc:
                if classify(exc).verdict is not Verdict.RETRY_HERE:
                    net_span.tag("error", type(exc).__name__) \
                        .finish(status="unreachable")
                    raise
                net_span.finish(status="lost")
                self.retransmits += 1
                self._totals.retransmits += 1
                self.nucleus.resilience.retries += 1
                if attempt + 1 >= policy.max_attempts:
                    raise
                gate.retry(node)
                gate.back_off(policy, attempt, self._retry_rng)
            else:
                if net_span is not NULL_SPAN:
                    transit = self.network.last_transit
                    net_span.tags["out_ms"] = transit.out_ms
                    net_span.tags["back_ms"] = transit.back_ms
                    net_span.tags["bytes_back"] = transit.bytes_back
                    net_span.finish()
                return reply

    def _settle(self, reply_bytes: bytes, entries, member_spans,
                marshaller, fmt, node: str) -> None:
        try:
            replies = open_reply(fmt, reply_bytes, "replies", marshaller,
                                 node)
        except OdpError as exc:  # undecodable, no such capsule, ...
            self._fail_all(entries, member_spans, exc, "error")
            return
        for index, entry in enumerate(entries):
            span = member_spans[index]
            if index >= len(replies):
                entry.future._fail(ProtocolMismatchError(
                    f"batch reply from {node} short: {len(replies)} "
                    f"replies for {len(entries)} members"))
                span.tag("error", "short-reply").finish(status="error")
                continue
            try:
                termination = termination_of(replies[index], marshaller,
                                             node)
            except OdpError as exc:
                # A shed member definitely did not execute: the caller
                # may simply re-issue it.
                shed = classify(exc).verdict is Verdict.RETRY_LATER
                if shed:
                    self.busy_failures += 1
                    self._totals.busy_failures += 1
                entry.future._fail(exc)
                span.tag("error", type(exc).__name__) \
                    .finish(status="shed" if shed else "error")
                continue
            entry.future._resolve(termination)
            span.finish()

    @staticmethod
    def _fail_all(entries, member_spans, error: OdpError,
                  status: str) -> None:
        for entry, span in zip(entries, member_spans):
            entry.future._fail(error)
            span.tag("error", type(error).__name__).finish(status=status)

    def stats(self) -> Dict[str, Any]:
        return {
            "calls": self.calls,
            "batches_sent": self.batches_sent,
            "invocations_batched": self.invocations_batched,
            "avg_batch": (self.invocations_batched / self.batches_sent
                          if self.batches_sent else 0.0),
            "retransmits": self.retransmits,
            "busy_failures": self.busy_failures,
            "flushes_on_size": self.flushes_on_size,
            "flushes_on_linger": self.flushes_on_linger,
        }
