"""Invocation model.

Section 5.1 defines two interaction kinds:

* **Interrogation** — request-reply, "activity is temporarily transferred to
  the invoked interface"; failure to meet QoS constraints is reported to
  the invoker.
* **Announcement** — asynchronous request-only, "spawning a new activity to
  perform the requested operation"; failures cannot be reported.

Quality-of-service constraints are attached per invocation (explicitly or
by default), and the invocation context carries the transaction, security
and federation state the transparency layers need.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.trace.context import TraceContext


class InvocationKind(enum.Enum):
    INTERROGATION = "interrogation"
    ANNOUNCEMENT = "announcement"


@dataclass(frozen=True)
class QoS:
    """Communications quality-of-service constraints (section 5.1)."""

    #: Virtual-ms budget for the whole interrogation; None = unbounded.
    deadline_ms: Optional[float] = None
    #: Transparent retries the protocol adapter may attempt on message loss.
    retries: int = 2
    #: Base delay before the first retry (the backoff series starts here).
    retry_delay_ms: float = 1.0
    #: Geometric growth factor for successive retry delays.
    backoff_multiplier: float = 2.0
    #: Ceiling on any single retry delay.
    retry_delay_max_ms: float = 50.0
    #: Symmetric deterministic jitter fraction on each retry delay.
    retry_jitter: float = 0.1
    #: Preferred protocol name; None lets the binder choose.
    protocol: Optional[str] = None
    #: Priority class 0-3 (0 = background, shed first; 3 = critical).
    #: Carried on the wire only when the nucleus opts into deadline
    #: propagation; the class-aware admission controller sheds the
    #: lowest class first under overload.
    priority: int = 2


# A single shared default instance (immutable, safe to share).
QoS.DEFAULT = QoS()


@dataclass
class InvocationContext:
    """Out-of-band state travelling with an invocation.

    Every field is optional: plain invocations carry an empty context and
    transparency layers populate what they need.
    """

    #: Identity of the calling principal (security, section 7.1).
    principal: Optional[str] = None
    #: MAC tokens per secret authority; filled in by the security layer.
    credentials: Dict[str, str] = field(default_factory=dict)
    #: Enclosing transaction (concurrency transparency, section 5.2).
    transaction_id: Optional[str] = None
    #: Domain where the invocation originated (federation, section 5.6).
    origin_domain: Optional[str] = None
    #: Domains traversed so far (administrative audit trail).
    via_domains: Tuple[str, ...] = ()
    #: Free-form annotations for extensions.
    extra: Dict[str, Any] = field(default_factory=dict)
    #: Causal trace position (management transparency, section 7.4).
    #: Allocated at the client stub, re-parented by each layer that
    #: opens a span, carried across the wire and federated hops.
    trace: Optional["TraceContext"] = None

    def copy(self) -> "InvocationContext":
        return InvocationContext(
            principal=self.principal,
            credentials=dict(self.credentials),
            transaction_id=self.transaction_id,
            origin_domain=self.origin_domain,
            via_domains=self.via_domains,
            extra=dict(self.extra),
            trace=self.trace,
        )


@dataclass
class Invocation:
    """One operation invocation travelling down a channel."""

    interface_id: str
    operation: str
    args: Tuple[Any, ...]
    kind: InvocationKind = InvocationKind.INTERROGATION
    qos: QoS = QoS.DEFAULT
    context: InvocationContext = field(default_factory=InvocationContext)
    #: Epoch of the reference used, for staleness detection.
    epoch: int = 0
    #: Unique id stamped at the channel mouth; constant across
    #: retransmissions, so the server's reply cache can deduplicate a
    #: retry whose original reply was lost (exactly-once execution).
    invocation_id: str = ""
