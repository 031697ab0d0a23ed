"""The binder: late, type-checked binding of clients to servers.

Section 4.3: "to change configurations dynamically, indirection (i.e. late
binding of clients to servers) is essential ... early type checking reduces
the risks of unpredictable behaviour - it requires that type checking be an
integral part of the configuration process."

``Binder.bind`` checks the reference's signature against what the client
requires *before* any invocation happens, asks the transparency compiler
for a channel stack matching the constraints, and returns a generated
:class:`Proxy` whose methods look exactly like local calls.
"""

from __future__ import annotations

import inspect
from typing import Callable, Optional

from repro.comp.constraints import EnvironmentConstraints
from repro.comp.invocation import InvocationContext, InvocationKind, QoS
from repro.comp.model import signature_of
from repro.comp.outcomes import Signal, Termination
from repro.comp.reference import InterfaceRef
from repro.errors import TypeCheckError
from repro.types.conformance import explain_mismatch
from repro.types.signature import InterfaceSignature


class Proxy:
    """Generated client surrogate for one bound interface.

    Calling ``proxy.op(a, b)``:

    * returns ``None`` / the single value / a tuple for an ``ok``
      termination (multiple results per outcome, section 5.1),
    * raises :class:`Signal` carrying the termination for any other
      outcome,
    * raises an :class:`~repro.errors.OdpError` subclass for
      infrastructure failures the transparencies could not mask.
    """

    def __init__(self, channel, context_factory: Optional[Callable] = None,
                 default_qos: Optional[QoS] = None) -> None:
        self._channel = channel
        self._context_factory = context_factory
        self._default_qos = default_qos or QoS.DEFAULT
        signature = channel.ref.signature
        for op_name, op_sig in signature.operations.items():
            setattr(self, op_name, self._make_stub(op_name, op_sig))

    @property
    def _ref(self) -> InterfaceRef:
        return self._channel.ref

    @property
    def _signature(self) -> InterfaceSignature:
        return self._channel.ref.signature

    def _make_stub(self, op_name: str, op_sig) -> Callable:
        announcement = op_sig.announcement

        def stub(*args, _qos: Optional[QoS] = None):
            context = (self._context_factory()
                       if self._context_factory else InvocationContext())
            kind = (InvocationKind.ANNOUNCEMENT if announcement
                    else InvocationKind.INTERROGATION)
            termination = self._channel.invoke(
                op_name, args, kind=kind,
                qos=_qos or self._default_qos, context=context)
            if announcement:
                return None
            return unpack_termination(termination)

        stub.__name__ = op_name
        stub.__qualname__ = f"Proxy.{op_name}"
        stub.__doc__ = f"Invoke remote operation {op_sig!r}"
        return stub

    def _invoke_raw(self, op_name: str, args=(),
                    qos: Optional[QoS] = None) -> Termination:
        """Low-level invoke returning the Termination itself."""
        context = (self._context_factory()
                   if self._context_factory else InvocationContext())
        return self._channel.invoke(op_name, args,
                                    qos=qos or self._default_qos,
                                    context=context)

    def __repr__(self) -> str:
        return f"Proxy({self._ref!r})"


def unpack_termination(termination: Termination):
    """Apply the proxy return convention to a termination."""
    if not termination.ok:
        raise Signal(termination.name, *termination.values)
    if not termination.values:
        return None
    if len(termination.values) == 1:
        return termination.values[0]
    return termination.values


class Binder:
    """Creates type-checked channels from interface references."""

    def __init__(self, nucleus, capsule) -> None:
        self.nucleus = nucleus
        self.capsule = capsule

    def bind(self, ref: InterfaceRef,
             required=None,
             constraints: Optional[EnvironmentConstraints] = None,
             qos: Optional[QoS] = None,
             principal: Optional[str] = None) -> Proxy:
        """Bind to *ref* and return a proxy.

        ``required`` may be an :class:`InterfaceSignature`, a class with
        ``@operation`` declarations, or ``None`` (accept the reference's own
        signature).  ``principal`` names the calling identity for secured
        interfaces.
        """
        required_sig = self._coerce_required(required)
        if required_sig is not None:
            problems = explain_mismatch(ref.signature, required_sig)
            if problems:
                raise TypeCheckError(
                    "interface does not conform to requirement: "
                    + "; ".join(problems))

        from repro.transparency.compiler import compile_client_channel

        constraints = constraints or EnvironmentConstraints.DEFAULT
        channel = compile_client_channel(
            self.nucleus, self.capsule, ref, constraints)

        # Binding grants a GC lease on the target; use will renew it
        # (section 7.3).  Only the target's own domain tracks leases.
        holder = f"{self.nucleus.node_address}/{self.capsule.name}"
        target_domain = self._target_domain(ref)
        if target_domain is not None:
            target_domain.collector.note_binding(ref, holder)

        context_factory = self._make_context_factory(
            principal, ref.interface_id, holder, target_domain)
        return Proxy(channel, context_factory,
                     default_qos=qos or constraints.default_qos)

    def _target_domain(self, ref: InterfaceRef):
        federation = self.nucleus.domain.federation
        name = federation.domain_of_ref(ref)
        if name is None:
            return None
        return federation.domains.get(name)

    def _coerce_required(self, required) -> Optional[InterfaceSignature]:
        if required is None:
            return None
        if isinstance(required, InterfaceSignature):
            return required
        if inspect.isclass(required):
            return signature_of(required)
        raise TypeError(
            "required must be an InterfaceSignature, a class, or None")

    def _make_context_factory(self, principal: Optional[str],
                              interface_id: Optional[str] = None,
                              holder: Optional[str] = None,
                              target_domain=None) -> Callable:
        domain = self.nucleus.domain

        def factory() -> InvocationContext:
            context = InvocationContext(principal=principal)
            context.origin_domain = domain.name
            transaction = domain.current_transaction()
            if transaction is not None:
                context.transaction_id = transaction.transaction_id
            if principal is not None:
                context.credentials = domain.credentials_for(principal)
            if target_domain is not None and interface_id is not None:
                target_domain.collector.note_use(interface_id, holder)
            return context

        return factory
