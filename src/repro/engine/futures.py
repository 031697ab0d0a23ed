"""Split-phase invocation: futures over interrogations.

Section 4.1: "the ODP application programmer should also be prepared to
exploit parallelism to overcome communication delays and to make full
use of the multi-processing capability of a distributed system."

The synchronous proxy path charges each round trip inline, so two calls
from one client serialise.  This module adds the engineering for genuine
overlap: the request travels as a one-way message carrying a reply-to
address and call id; the server dispatches and posts the termination
back; a per-node :class:`ReplyRouter` resolves the matching
:class:`Future`.  Two futures started together overlap their round trips
on the virtual clock (tested: elapsed ~= max, not sum).

Usage::

    inv = AsyncInvoker(world.binder_for(clients), clients)
    f1 = inv.call(ref_a, "slow_op")
    f2 = inv.call(ref_b, "slow_op")
    world.settle()                     # or run activities/other work
    print(f1.result(), f2.result())
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.comp.invocation import InvocationContext, QoS
from repro.comp.outcomes import Termination
from repro.comp.reference import InterfaceRef
from repro.engine.binder import unpack_termination
from repro.engine.nucleus import Nucleus
from repro.engine.remote import inv_object, termination_of
from repro.errors import (
    DeadlineExceededError,
    MarshalError,
    OdpError,
)
from repro.ndr.formats import get_format


class Future:
    """The eventual outcome of one split-phase interrogation."""

    def __init__(self, call_id: str) -> None:
        self.call_id = call_id
        self._termination: Optional[Termination] = None
        self._error: Optional[BaseException] = None
        self._done = False

    @property
    def done(self) -> bool:
        return self._done

    def result(self) -> Any:
        """The unpacked result; raises Signal / infrastructure errors.

        Raises ``RuntimeError`` if awaited before completion — drive the
        scheduler (``world.settle()`` or activity yields) first.
        """
        if not self._done:
            raise RuntimeError(
                f"future {self.call_id} is not resolved yet; run the "
                f"scheduler")
        if self._error is not None:
            raise self._error
        return unpack_termination(self._termination)

    # -- resolution (router-side) ---------------------------------------------

    def _resolve(self, termination: Termination) -> None:
        if self._done:
            return
        self._termination = termination
        self._done = True

    def _fail(self, error: BaseException) -> None:
        if self._done:
            return
        self._error = error
        self._done = True


class ReplyRouter:
    """Per-node demultiplexer of asynchronous replies."""

    def __init__(self, nucleus: Nucleus) -> None:
        self.nucleus = nucleus
        self._pending: Dict[str, tuple] = {}
        self._counter = 0
        nucleus.node.on_deliver("reply", self._on_reply)

    @classmethod
    def attach(cls, nucleus: Nucleus) -> "ReplyRouter":
        router = getattr(nucleus, "_reply_router", None)
        if router is None:
            router = ReplyRouter(nucleus)
            nucleus._reply_router = router
        return router

    def new_future(self, capsule) -> Future:
        self._counter += 1
        call_id = f"{self.nucleus.node_address}#call-{self._counter}"
        future = Future(call_id)
        self._pending[call_id] = (future, capsule)
        return future

    # -- client side: reply arrives ------------------------------------------

    def _on_reply(self, message) -> None:
        wire = self.nucleus.wire
        try:
            reply = wire.loads(message.payload)
        except MarshalError:
            return
        # Decodable is not well-formed: a reply that is no object, or
        # names no call of ours, is dropped like an undecodable one.
        call_id = reply.get("call_id") if isinstance(reply, dict) else None
        entry = (self._pending.pop(call_id, None)
                 if isinstance(call_id, str) else None)
        if entry is None:
            return
        future, capsule = entry
        try:
            termination = termination_of(reply, capsule.marshaller,
                                         message.source)
        except OdpError as exc:
            future._fail(exc)
            return
        future._resolve(termination)

    def timeout(self, future: Future, deadline_ms: float) -> None:
        def expire() -> None:
            if not future.done:
                self._pending.pop(future.call_id, None)
                future._fail(DeadlineExceededError(
                    f"async call {future.call_id} exceeded "
                    f"{deadline_ms}ms"))
        self.nucleus.network.scheduler.after(deadline_ms, expire,
                                             label="async-timeout")


class AsyncInvoker:
    """Issues split-phase interrogations from one client capsule."""

    def __init__(self, binder, capsule) -> None:
        self.binder = binder
        self.capsule = capsule
        self.nucleus = capsule.nucleus
        self.router = ReplyRouter.attach(self.nucleus)
        self.calls = 0

    def call(self, ref: InterfaceRef, operation: str, *args,
             principal: Optional[str] = None,
             qos: Optional[QoS] = None) -> Future:
        """Fire an interrogation; returns immediately with a Future."""
        self.calls += 1
        future = self.router.new_future(self.capsule)
        path = ref.primary_path()
        wire = get_format(path.wire_format)
        context = InvocationContext(principal=principal)
        domain = self.nucleus.domain
        context.origin_domain = domain.name
        if principal is not None:
            context.credentials = domain.credentials_for(principal)
        envelope = {
            "capsule": path.capsule,
            "call_id": future.call_id,
            "reply_to": self.nucleus.node_address,
            "inv": inv_object(self.capsule.marshaller, ref.interface_id,
                              operation, args, "interrogation", ref.epoch,
                              context),
        }
        self.nucleus.network.post(self.nucleus.node_address, path.node,
                                  wire.dumps(envelope), kind="ainvoke")
        effective_qos = qos or QoS.DEFAULT
        if effective_qos.deadline_ms is not None:
            self.router.timeout(future, effective_qos.deadline_ms)
        return future
