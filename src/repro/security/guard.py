"""Guards — generated interface police (paper section 7.1).

"For each interface of the object, a guard can be generated to police use
of that interface.  The guard must be included within the encapsulation
boundary of the secure object" — here, the guard is a server-side channel
layer that runs *before* the implementation method, inside the capsule.

The client side needs no layer: the binder's context factory attaches
the bound principal's MAC credentials to every outgoing invocation.
"""

from __future__ import annotations

from typing import Optional

from repro.comp.invocation import Invocation
from repro.comp.outcomes import Termination
from repro.engine.layers import ServerLayer
from repro.errors import AccessDeniedError, AuthenticationError
from repro.security.audit import AuditLog
from repro.security.policy import SecurityPolicy
from repro.security.secrets import SecretAuthority


class GuardLayer(ServerLayer):
    """Authenticates the caller and enforces the interface's policy."""

    name = "guard"

    def __init__(self, policy: SecurityPolicy, authority: SecretAuthority,
                 audit: Optional[AuditLog] = None,
                 require_authentication: bool = True,
                 clock=None) -> None:
        self.policy = policy
        self.authority = authority
        self.audit = audit
        self.require_authentication = require_authentication
        self.clock = clock
        self.allowed = 0
        self.denied = 0

    def _now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    def _log(self, invocation: Invocation, interface, allowed: bool,
             reason: str) -> None:
        if self.audit is not None:
            self.audit.record(self._now(), interface.interface_id,
                              invocation.operation,
                              invocation.context.principal, allowed, reason)

    #: Virtual-ms charged per MAC verification (simulated crypto cost).
    VERIFY_COST_MS = 0.08

    def handle(self, invocation: Invocation, interface,
               next_layer) -> Termination:
        principal = invocation.context.principal
        if self.clock is not None and self.require_authentication:
            self.clock.advance(self.VERIFY_COST_MS)
        if self.require_authentication:
            try:
                self.authority.verify(principal or "",
                                      invocation.context.credentials)
            except AuthenticationError as exc:
                self.denied += 1
                self._log(invocation, interface, False, str(exc))
                raise
        if not self.policy.permits(invocation.operation, principal):
            self.denied += 1
            reason = (f"policy {self.policy.name!r} denies "
                      f"{invocation.operation!r} to {principal!r}")
            self._log(invocation, interface, False, reason)
            raise AccessDeniedError(reason)
        self.allowed += 1
        self._log(invocation, interface, True, "permitted")
        return next_layer(invocation)

