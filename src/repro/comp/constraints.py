"""Declarative environment constraints — selective transparency.

Section 3: "Transparency must ... be declarative, selective and modular."
Section 4.5: "transparency requirements are expressed as environment
constraints within interface specifications ... transparency requirements
can be processed automatically."

An :class:`EnvironmentConstraints` value is attached when an object is
exported (server side) or bound (client side).  The transparency compiler
(``repro.transparency.compiler``) turns it into a concrete channel stack —
the application never names a mechanism, only the property it wants.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.comp.invocation import QoS


@dataclass(frozen=True)
class ReplicationSpec:
    """Request replication transparency (section 5.3)."""

    #: Number of replicas to maintain.
    replicas: int = 3
    #: 'active' (all members execute) or 'read_spread' (reads spread
    #: over members for availability).
    policy: str = "active"
    #: Replies required before the client-side layer reports success.
    reply_quorum: int = 1

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.policy not in ("active", "read_spread"):
            raise ValueError(f"unknown replication policy {self.policy!r}")
        if not 1 <= self.reply_quorum <= self.replicas:
            raise ValueError("reply_quorum must be in [1, replicas]")


@dataclass(frozen=True)
class FailureSpec:
    """Request failure transparency (sections 5.5): checkpoint + log."""

    #: Checkpoint every N state-changing invocations.
    checkpoint_every: int = 10
    #: Node where recovery should reinstate the object; None = any survivor.
    recovery_node: Optional[str] = None


@dataclass(frozen=True)
class SecuritySpec:
    """Request guarded access (section 7.1)."""

    #: Name of the security policy to enforce (registered with the domain's
    #: policy store).
    policy: str = "default"
    #: Whether invocations must carry a valid MAC credential.
    require_authentication: bool = True
    #: Record every allow/deny decision in the audit log.
    audit: bool = True


@dataclass(frozen=True)
class EnvironmentConstraints:
    """The full set of transparency selections for one interface.

    Access transparency is always present (it is what makes invocation
    possible at all); everything else is opt-in, reproducing the paper's
    "selective transparency".
    """

    #: Mask relocation/migration of the server (section 5.4).
    location: bool = True
    #: Wrap invocations in the transaction machinery (section 5.2).
    concurrency: bool = False
    #: Optional ordering predicate (consistency constraint): a
    #: repro.tx.ordering.OrderingPredicate restricting invocation
    #: sequences within a transaction.  Only meaningful with concurrency.
    ordering: Optional[object] = None
    #: Maintain and invoke a replica group (section 5.3).
    replication: Optional[ReplicationSpec] = None
    #: Checkpoint + log recovery (section 5.5).
    failure: Optional[FailureSpec] = None
    #: Allow the object to move between nodes (section 5.5).
    migration: bool = False
    #: Passivate idle objects to the repository (section 5.5).
    resource: bool = False
    #: Guard + authentication (section 7.1).
    security: Optional[SecuritySpec] = None
    #: Allow transparent crossing of domain boundaries (section 5.6).
    federation: bool = True
    #: Default QoS applied when an invocation does not carry its own.
    default_qos: QoS = QoS.DEFAULT
    #: Permit the direct-local-access optimisation for co-located
    #: client/server pairs (section 4.5).  Disabling it forces the full
    #: channel even locally (useful for measurement).
    allow_local_shortcut: bool = True

    def selected(self) -> tuple:
        """Names of the optional transparencies that are switched on."""
        names = []
        if self.location:
            names.append("location")
        if self.concurrency:
            names.append("concurrency")
        if self.replication:
            names.append("replication")
        if self.failure:
            names.append("failure")
        if self.migration:
            names.append("migration")
        if self.resource:
            names.append("resource")
        if self.security:
            names.append("security")
        if self.federation:
            names.append("federation")
        return tuple(names)

    def but(self, **changes) -> "EnvironmentConstraints":
        """A copy with some selections changed (constraints are immutable)."""
        return replace(self, **changes)


#: The do-nothing-extra default: access + location + federation only.
EnvironmentConstraints.DEFAULT = EnvironmentConstraints()
