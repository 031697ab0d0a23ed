"""Retry policy: exponential backoff with deterministic jitter.

The QoS model (section 5.1) lets every invocation carry its own
communications constraints.  A :class:`RetryPolicy` is the mechanism
compiled from those constraints: attempt count, a geometric delay
series, a per-attempt jitter drawn from a forked
:class:`~repro.sim.rand.DeterministicRandom` stream (so two
identically-seeded runs back off identically), and a hard cap so a
single wait never overshoots the delay ceiling.

This module is also the one place the platform's retry decisions live.
Every loop that re-issues an invocation (channel transport, batch
retransmitter, both group-client loops, the shard router's chase) reads
them from here and keeps only what is its own — how to pick the next
target, what "refresh" means:

* :data:`RULES` / :func:`classify` — what an error says about *where*
  a retry may go and *who* learns of the failure;
* :class:`RetryGate` — admission of each attempt against the deadline
  and the path's retry budget, and the back-off between attempts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.comp.invocation import QoS
from repro.errors import (
    DeadlineExceededError,
    EpochFencedError,
    InvocationExpiredError,
    MembershipError,
    MessageLostError,
    NodeUnreachableError,
    NoQuorumError,
    RetryBudgetExhaustedError,
    ServerBusyError,
    WrongShardError,
)
from repro.sim.rand import DeterministicRandom
from repro.trace.span import NULL_SPAN


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule for retransmissions on one access path."""

    #: Total attempts per access path (first try + retries).
    max_attempts: int = 3
    #: Delay before the first retransmission.
    base_delay_ms: float = 1.0
    #: Geometric growth factor for successive delays.
    multiplier: float = 2.0
    #: Ceiling on any single delay.
    max_delay_ms: float = 50.0
    #: Symmetric jitter fraction applied to each delay (0.1 = +/-10%).
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_ms < 0.0 or self.max_delay_ms < 0.0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1.0")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    @classmethod
    def from_qos(cls, qos: QoS) -> "RetryPolicy":
        """Compile the invocation's QoS constraints into a policy."""
        return cls(
            max_attempts=qos.retries + 1,
            base_delay_ms=qos.retry_delay_ms,
            multiplier=qos.backoff_multiplier,
            max_delay_ms=qos.retry_delay_max_ms,
            jitter=qos.retry_jitter,
        )

    def delay_ms(self, attempt: int,
                 rng: DeterministicRandom) -> float:
        """Delay before retransmitting after failed attempt *attempt*.

        ``attempt`` is zero-based: the delay after the first failed try
        is ``base_delay_ms`` (jittered).
        """
        delay = min(self.max_delay_ms,
                    self.base_delay_ms * (self.multiplier ** attempt))
        if self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, delay)


class Verdict(enum.Enum):
    """Where the next attempt may go after an error."""

    RETRY_HERE = "retry here"
    NEXT_TARGET = "next path or member"
    #: The target answered "not now": back off and retry *it* — never a
    #: reason to change target or view.
    RETRY_LATER = "retry later"
    #: The caller's routing knowledge is stale.
    REFRESH = "refresh the view and re-route"
    #: Nothing was applied and the route was right.
    SAME_VIEW = "retry under the current view"
    #: No loop retries it; the caller sees the error.
    STOP = "stop"


class Rule(NamedTuple):
    """One row of the classification table."""

    error: type
    verdict: Verdict
    #: Evidence the *path* is dead: feeds the circuit breaker, and is
    #: the only thing that makes the transport abandon a path it has
    #: attempts left on.
    breaker: bool = False
    #: Evidence the *member* is dead: the group client suspects it.
    suspect: bool = False


#: The table.  A class without a row inherits its nearest ancestor's;
#: anything else stops.  Whether a retry spends budget is not a column:
#: every retry goes through :meth:`RetryGate.retry` and spends, except
#: that a transport failover is a *first* attempt on the next path while
#: the group client's move to the next sequencer is a charged retry —
#: a property of the site's gate call (pinned by the run digests), not
#: of the error class.
RULES = (
    Rule(MessageLostError, Verdict.RETRY_HERE),
    Rule(NodeUnreachableError, Verdict.NEXT_TARGET,
         breaker=True, suspect=True),
    Rule(MembershipError, Verdict.NEXT_TARGET, suspect=True),
    # Shed before executing: the server answered, so neither breaker
    # nor suspicion, and a sibling path to the same server is no help.
    Rule(ServerBusyError, Verdict.RETRY_LATER),
    Rule(EpochFencedError, Verdict.REFRESH),
    Rule(WrongShardError, Verdict.REFRESH),
    # Quorum loss says *other* members were unreachable, not that the
    # one we reached failed.
    Rule(NoQuorumError, Verdict.SAME_VIEW),
    # The budget already said no / the deadline is already dead: the
    # caller may come back later (``retryable``), no loop may go on.
    Rule(RetryBudgetExhaustedError, Verdict.STOP),
    Rule(InvocationExpiredError, Verdict.STOP),
    Rule(DeadlineExceededError, Verdict.STOP),
)

_BY_CLASS = {rule.error: rule for rule in RULES}
_STOP = Rule(Exception, Verdict.STOP)


def classify(error: BaseException) -> Rule:
    """The table row that governs *error*."""
    for cls in type(error).__mro__:
        if cls in _BY_CLASS:
            return _BY_CLASS[cls]
    return _STOP


class RetryGate:
    """One invocation's retry allowance: its deadline, and the budget
    of the path each attempt takes.

    ``key`` is the budget's traffic class ("invoke", "batch", "group",
    "shard").  What the deadline's passing looks like differs by site
    and the run digests pin it: the transport gives up *at* the
    deadline with ``DeadlineExceededError``, the group and shard clients
    one instant *after* it with ``InvocationExpiredError`` — hence
    ``expiry`` and ``inclusive``.
    """

    __slots__ = ("nucleus", "key", "what", "deadline", "expiry",
                 "inclusive")

    def __init__(self, nucleus, key: str, what: str,
                 deadline: Optional[float],
                 expiry: type = InvocationExpiredError,
                 inclusive: bool = False) -> None:
        self.nucleus = nucleus
        self.key = key
        self.what = what
        self.deadline = deadline
        self.expiry = expiry
        self.inclusive = inclusive

    def first(self, node: str) -> None:
        """A first attempt at *node*: it earns the path retry credit."""
        self.nucleus.retry_budgets.note_first(node, self.key)

    def check(self, when: str = "before the retry") -> None:
        """Raise once the deadline has passed."""
        deadline = self.deadline
        if deadline is None:
            return
        now = self.nucleus.network.scheduler.clock.now
        if now > deadline or (self.inclusive and now == deadline):
            raise self.expiry(f"{self.what}: deadline passed {when}")

    def spend(self, node: str) -> None:
        """Withdraw one retry token for *node*, or refuse the retry."""
        if not self.nucleus.retry_budgets.try_spend(node, self.key):
            raise RetryBudgetExhaustedError(
                f"{self.what}: retry budget for {node}/{self.key} "
                f"exhausted")

    def retry(self, node: str) -> None:
        """A later attempt at *node*: inside the deadline, and paid for."""
        self.check()
        self.spend(node)

    def back_off(self, policy: RetryPolicy, attempt: int,
                 rng: DeterministicRandom, parent=None, **tags) -> float:
        """Wait out the policy's delay after failed attempt *attempt*,
        clipped so the clock is never advanced past the deadline only to
        raise afterwards.  Returns the virtual ms waited; ``parent`` is
        the trace position for the ``resilience.backoff`` span."""
        nucleus = self.nucleus
        clock = nucleus.network.scheduler.clock
        delay = policy.delay_ms(attempt, rng)
        if self.deadline is not None:
            delay = min(delay, max(0.0, self.deadline - clock.now))
        nucleus.resilience.backoff_wait_ms += delay
        span = NULL_SPAN
        if parent is not None:
            span = nucleus.tracer.span(
                "resilience.backoff", "resilience", parent,
                node=nucleus.node_address,
                tags={"delay_ms": delay, **tags})
        clock.advance(delay)
        span.finish()
        return delay
