"""Capsules: the unit of encapsulation in the engineering model.

A capsule is an address space on a node.  It holds exported interfaces,
runs their server-side layer stacks, and performs the final dispatch of an
invocation onto the implementation method.  Implicit export happens here
too: when a mutable object is passed as an argument, the marshaller calls
back into the owning capsule to export it, preserving the computational
rule that mutable state is shared by reference (section 4.4).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.comp.constraints import EnvironmentConstraints
from repro.comp.interface import Interface, InterfaceState
from repro.comp.invocation import Invocation
from repro.comp.model import signature_of
from repro.comp.outcomes import Signal, Termination
from repro.comp.reference import InterfaceRef
from repro.errors import (
    ServerFaultError,
    SignatureError,
    StaleReferenceError,
    UnknownOperationError,
)
from repro.ndr.codec import Marshaller
from repro.trace.context import pop_active, push_active
from repro.trace.span import NULL_SPAN, span_name
from repro.types.signature import InterfaceSignature


class Capsule:
    """A named address space holding exported interfaces."""

    def __init__(self, name: str, nucleus) -> None:
        self.name = name
        self.nucleus = nucleus
        self.interfaces: Dict[str, Interface] = {}
        #: Forwarding stubs left behind by migration: id -> new InterfaceRef.
        self.forwards: Dict[str, InterfaceRef] = {}
        #: Memoised implicit exports: id(obj) -> InterfaceRef.
        self._implicit: Dict[int, InterfaceRef] = {}
        #: Every leg this capsule marshals through; mutable arguments
        #: are exported from here (pass by reference, section 4.4).
        self.marshaller = Marshaller(exporter=self.implicit_export)
        #: Invocation-id minting: a forked deterministic stream gives the
        #: capsule a stable tag, a counter guarantees uniqueness.
        self._invocation_tag = "%06x" % nucleus.network.rng.fork(
            f"invid:{nucleus.node_address}:{name}").randint(0, 0xFFFFFF)
        self._invocation_seq = 0

    def next_invocation_id(self) -> str:
        """Mint a unique id for one outgoing invocation.

        Stamped once per logical invocation (not per attempt): every
        retransmission reuses it, which is what lets the server side
        deduplicate re-deliveries after a lost reply leg.
        """
        self._invocation_seq += 1
        return (f"{self.nucleus.node_address}/{self.name}"
                f"-{self._invocation_tag}-{self._invocation_seq}")

    # -- exporting ------------------------------------------------------------

    def export(self, implementation: Any,
               signature: Optional[InterfaceSignature] = None,
               constraints: Optional[EnvironmentConstraints] = None,
               interface_id: Optional[str] = None,
               epoch: int = 0) -> InterfaceRef:
        """Export *implementation* and return a reference to its interface.

        The transparency compiler consumes *constraints* to attach the
        server-side mechanism layers; the relocation service is told about
        the new interface so location transparency works from birth.
        *epoch* is non-zero when re-exporting a moved or recovered
        interface under its stable identity.
        """
        if signature is None:
            signature = signature_of(implementation)
        constraints = constraints or EnvironmentConstraints.DEFAULT
        interface_id = interface_id or self.nucleus.mint_interface_id()
        if interface_id in self.interfaces:
            raise ValueError(f"interface id {interface_id} already exported")

        interface = Interface(interface_id, signature, implementation,
                              self.name, epoch=epoch)
        interface.annotations["constraints"] = constraints
        self.interfaces[interface_id] = interface
        self.nucleus.compile_server_side(self, interface, constraints)
        ref = self.make_ref(interface)
        self.nucleus.register_export(self, interface, ref)
        return ref

    def make_ref(self, interface: Interface) -> InterfaceRef:
        """Build a reference naming this capsule's current access paths."""
        return InterfaceRef(
            interface.interface_id,
            interface.signature,
            paths=self.nucleus.access_paths(self.name),
            epoch=interface.epoch,
        )

    def implicit_export(self, obj: Any) -> InterfaceRef:
        """Export *obj* with default constraints (argument passing)."""
        cached = self._implicit.get(id(obj))
        if cached is not None and cached.interface_id in self.interfaces:
            return cached
        ref = self.export(obj)
        self._implicit[id(obj)] = ref
        return ref

    # -- lifecycle -------------------------------------------------------------

    def interface(self, interface_id: str) -> Interface:
        try:
            return self.interfaces[interface_id]
        except KeyError:
            hint = self.forwards.get(interface_id)
            raise StaleReferenceError(
                f"interface {interface_id} is not in capsule {self.name}",
                forward_hint=hint) from None

    def evict_stale(self, interface_id: str, new_epoch: int) -> bool:
        """Remove a leftover record older than *new_epoch*.

        After a node crash + recovery elsewhere, a restarted node may
        still hold the pre-crash interface record; the epoch decides
        which incarnation is current.  Returns True if a stale record
        was evicted, False if there was none; raises if the resident
        record is as new or newer (a genuine conflict).
        """
        resident = self.interfaces.get(interface_id)
        if resident is None:
            return False
        if resident.epoch >= new_epoch:
            raise ValueError(
                f"interface {interface_id} resident at epoch "
                f"{resident.epoch} >= incoming {new_epoch}")
        del self.interfaces[interface_id]
        return True

    def withdraw(self, interface_id: str,
                 forward: Optional[InterfaceRef] = None) -> Interface:
        """Remove an interface, optionally leaving a forwarding stub."""
        interface = self.interface(interface_id)
        del self.interfaces[interface_id]
        if forward is not None:
            self.forwards[interface_id] = forward
        return interface

    def close(self, interface_id: str) -> None:
        """Explicitly close an interface (section 7.3)."""
        self.interface(interface_id).close()

    # -- dispatch ---------------------------------------------------------------

    def dispatch(self, invocation: Invocation) -> Termination:
        """Run *invocation* through the interface's server stack."""
        interface = self.interface(invocation.interface_id)
        interface.require_usable()
        interface.annotations["last_used"] = \
            self.nucleus.network.scheduler.now

        if interface.state == InterfaceState.PASSIVE:
            reactivate = interface.annotations.get("reactivator")
            if reactivate is None:
                raise StaleReferenceError(
                    f"interface {invocation.interface_id} is passive and "
                    f"has no reactivator")
            reactivate(interface)

        if invocation.epoch > interface.epoch:
            # A reference from the future can only mean identifier reuse.
            raise StaleReferenceError(
                f"reference epoch {invocation.epoch} is ahead of interface "
                f"epoch {interface.epoch}")

        handler = interface.annotations.get("server_chain")
        if handler is None:
            handler = self._core_dispatch(interface)
        interface.invocations_served += 1

        trace = invocation.context.trace
        if trace is None:
            return handler(invocation)
        if not trace.sampled:
            # Nothing to record, but nested calls the implementation
            # makes must still inherit the not-sampled verdict.
            push_active(trace)
            try:
                return handler(invocation)
            finally:
                pop_active()
        span = self.nucleus.tracer.span(
            span_name("execute", invocation.operation), "execute", trace,
            node=self.nucleus.node_address, tags={"capsule": self.name})
        # Scope the executing span so calls the implementation makes
        # join this trace.
        if span is not NULL_SPAN:
            invocation.context.trace = span
        push_active(invocation.context.trace)
        try:
            termination = handler(invocation)
        except Exception as exc:
            span.tag("error", type(exc).__name__).finish(status="error")
            raise
        finally:
            pop_active()
        span.finish()
        return termination

    def _core_dispatch(self, interface: Interface) -> Callable:
        def core(invocation: Invocation) -> Termination:
            return self.invoke_implementation(interface, invocation)
        return core

    def invoke_implementation(self, interface: Interface,
                              invocation: Invocation) -> Termination:
        """The bottom of the server stack: call the Python method."""
        signature = interface.signature
        if invocation.operation not in signature.operations:
            raise UnknownOperationError(
                f"{signature.name} has no operation "
                f"{invocation.operation!r}")
        implementation = interface.implementation
        method = getattr(implementation, invocation.operation, None)
        if method is None:
            raise ServerFaultError(
                f"implementation lacks method {invocation.operation!r}")
        if not signature.operations[invocation.operation].readonly:
            # Lease invalidation (repro.lease): any mutating dispatch
            # against a cached-mode interface invalidates the holders.
            # Noted *before* the call — a write that signals or faults
            # may still have mutated state, and over-invalidation only
            # costs a refetch.  Group writes are noted by the member
            # layer at quorum commit instead (under the group id).
            leases = self.nucleus.domain._leases
            if leases is not None:
                leases.note_write(
                    invocation.interface_id,
                    str(invocation.args[0]) if invocation.args else "",
                    source=self.nucleus.node_address)
        try:
            result = method(*invocation.args)
        except Signal as signal:
            declared = signature.operation(
                invocation.operation).termination_names()
            if signal.name not in declared:
                raise ServerFaultError(
                    f"operation {invocation.operation!r} raised undeclared "
                    f"termination {signal.name!r}") from signal
            return signal.termination
        except SignatureError:
            raise
        except Exception as exc:  # noqa: BLE001 - converted to a fault
            raise ServerFaultError(
                f"{invocation.operation} failed: "
                f"{type(exc).__name__}: {exc}") from exc
        if result is None:
            return Termination("ok", ())
        if isinstance(result, tuple):
            return Termination("ok", result)
        return Termination("ok", (result,))

    def __repr__(self) -> str:
        return (f"Capsule({self.name}, {len(self.interfaces)} interfaces, "
                f"node={self.nucleus.node_address})")
