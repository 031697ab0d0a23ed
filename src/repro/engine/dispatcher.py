"""Server-side dispatch support: the generated type-check layer.

Section 5.1: the generated dispatcher accepts "incoming requests from the
network to the application procedures that process them"; section 4.3
requires that "all accesses must be type checked".  The capsule does the
actual method call; this module contributes the argument/arity validation
layer that the transparency compiler installs at the top of every server
stack.
"""

from __future__ import annotations

from repro.comp.invocation import Invocation, InvocationKind
from repro.comp.outcomes import Termination
from repro.engine.layers import ServerLayer
from repro.errors import TypeCheckError, UnknownOperationError
from repro.types.runtime import describe_mismatch, value_matches


class Dispatcher(ServerLayer):
    """Validates operation name, interaction kind, arity and value types."""

    name = "dispatch-typecheck"

    def handle(self, invocation: Invocation, interface, next_layer
               ) -> Termination:
        signature = interface.signature
        op = signature.operations.get(invocation.operation)
        if op is None:
            raise UnknownOperationError(
                f"{signature.name} offers no operation "
                f"{invocation.operation!r}")
        expected_kind = (InvocationKind.ANNOUNCEMENT if op.announcement
                         else InvocationKind.INTERROGATION)
        if invocation.kind != expected_kind:
            raise TypeCheckError(
                f"operation {op.name!r} requires {expected_kind.value}, "
                f"got {invocation.kind.value}")
        if len(invocation.args) != len(op.params):
            raise TypeCheckError(
                f"operation {op.name!r} takes {len(op.params)} arguments, "
                f"got {len(invocation.args)}")
        for index, (value, term) in enumerate(
                zip(invocation.args, op.params)):
            if not value_matches(value, term):
                raise TypeCheckError(
                    f"operation {op.name!r} argument {index}: "
                    + describe_mismatch(value, term))
        return next_layer(invocation)
