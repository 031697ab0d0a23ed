"""End-to-end deadline propagation.

A QoS deadline that lives only in the client stub protects nobody: by
the time an overloaded server dequeues the request the client has long
given up, yet the server still spends compute executing work whose
result will be discarded — the fuel of metastable retry storms.  The
fix mirrors PR 4's ``VIEW_KEY`` pattern: the client stamps the absolute
virtual-clock deadline into the invocation context under
:data:`DEADLINE_KEY`, every hop carries it verbatim (one shared virtual
clock makes the absolute form equivalent to per-hop decrement), and the
server's :class:`DeadlineGate` sheds expired work *at arrival*, before
it consumes admission tokens, and again *post-queue*, before dispatch —
so no operation ever starts executing after its deadline has passed.

Shedding an expired invocation raises
:class:`~repro.errors.InvocationExpiredError`: like a
``ServerBusyError`` shed it is a promise the operation did not run, but
unlike one it is *not* retryable — the deadline is dead, retrying can
only feed the storm.

``qos.priority`` rides the same context under :data:`PRIORITY_KEY` so
the class-aware admission controller can shed lowest-class-first.

Both keys are stamped only when the client nucleus opts in via
``deadline_propagation`` — the default wire format is byte-identical to
the pre-overload platform (the check harness pins its default-mode
digests against exactly that).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from repro.errors import MarshalError

#: Context key carrying the absolute virtual-clock deadline (ms).
DEADLINE_KEY = "deadline_at"

#: Context key carrying the QoS priority class (0-3).
PRIORITY_KEY = "priority"

#: Priority classes: 0 = background (shed first) .. 3 = critical.
NUM_CLASSES = 4

#: Class assigned when an invocation carries no explicit priority.
DEFAULT_PRIORITY = 2


def deadline_of(extra: Mapping[str, Any]) -> Optional[float]:
    """The absolute deadline stamped in a context ``extra`` dict."""
    value = extra.get(DEADLINE_KEY)
    if value is None:
        return None
    if type(value) is float or type(value) is int and abs(value) < 1e300:
        return float(value)
    raise MarshalError("deadline stamp is no number")  # a bool is none


def priority_of(extra: Mapping[str, Any]) -> int:
    """The priority class stamped in a context ``extra`` dict."""
    value = extra.get(PRIORITY_KEY)
    if value is None:
        return DEFAULT_PRIORITY
    if type(value) is not int:
        raise MarshalError("priority stamp is no integer")  # nor a bool
    return max(0, min(NUM_CLASSES - 1, value))


def stamp(extra: Dict[str, Any], qos, now: float) -> None:
    """Write *qos*'s absolute deadline and any non-default priority
    into a context ``extra`` dict.  Existing stamps win: a nested call
    inherits its caller's (tighter) deadline rather than restarting
    the clock."""
    if qos.deadline_ms is not None and DEADLINE_KEY not in extra:
        extra[DEADLINE_KEY] = now + qos.deadline_ms
    if qos.priority != DEFAULT_PRIORITY and PRIORITY_KEY not in extra:
        extra[PRIORITY_KEY] = qos.priority


def earliest_deadline(qos, now: float,
                      stamped: Optional[float]) -> Optional[float]:
    """The deadline a client-side retry loop must honour: the local
    QoS allowance counted from *now*, capped by a propagated stamp."""
    deadline = None if qos.deadline_ms is None else now + qos.deadline_ms
    if stamped is not None and (deadline is None or stamped < deadline):
        return stamped
    return deadline


class DeadlineGate:
    """Server-side deadline enforcement for one nucleus.

    Checked twice per invocation: at arrival (before admission tokens
    are consumed — expired work must not displace live work) and after
    the queue wait has been charged (so "no execution starts after the
    deadline" holds even when admission queued the request for longer
    than it had left to live).
    """

    def __init__(self, clock) -> None:
        self.clock = clock
        self.expired_on_arrival = 0
        self.expired_post_queue = 0
        #: When set, every dispatch *attempt* that passed the gate is
        #: logged with the deadline it carried — the overload_safety
        #: oracle's evidence.  The entry is written before the capsule
        #: looks the interface up, so a call the old capsule of a moved
        #: object refuses (``StaleReferenceError``) is logged there and
        #: again where it then executes: a duplicate id in this log is
        #: a repeated attempt, not a repeated execution.
        self.record_executions = False
        self.execution_log: List[Dict[str, Any]] = []

    def expired(self, deadline_at: Optional[float]) -> bool:
        if deadline_at is None:
            return False
        return self.clock.now > deadline_at + 1e-9

    def note_arrival_shed(self) -> None:
        self.expired_on_arrival += 1

    def note_post_queue_shed(self) -> None:
        self.expired_post_queue += 1

    def note_execution(self, invocation_id: str, operation: str,
                       deadline_at: Optional[float]) -> None:
        if self.record_executions:
            self.execution_log.append({
                "inv_id": invocation_id,
                "op": operation,
                "deadline": deadline_at,
                "executed_at": self.clock.now,
            })

    def stats(self) -> Dict[str, int]:
        return {
            "expired_on_arrival": self.expired_on_arrival,
            "expired_post_queue": self.expired_post_queue,
        }
