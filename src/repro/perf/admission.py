"""Admission control: token bucket + bounded dispatch queue per server.

The paper's infrastructure must "serve the needs of organisations"
(section 2) — which means surviving the organisation's peak, not just
its average.  An unprotected server accepts every request and converts
overload into unbounded queueing delay: latency collapses for everyone
and nobody is told to back off.  The admission controller converts the
same overload into *bounded* delay plus explicit, retryable
:class:`~repro.errors.ServerBusyError` sheds.

Mechanism: a token bucket replenished at ``rate_per_s`` with burst
capacity ``burst``.  Tokens may go negative — the deficit *is* the
dispatch queue, and each queued invocation waits ``deficit / rate`` of
virtual time before dispatch (charged to the clock by the nucleus, so
queueing delay is visible in every latency measurement and trace span).
When the deficit would exceed ``max_queue`` the invocation is shed
*before execution*: a shed is a promise that the operation did not run,
which is what lets clients (and the ``linearizable`` check oracle)
treat it as never executed rather than ambiguous.

``max_queue=None`` disables shedding — the unbounded-queue baseline the
C20 benchmark measures against: under sustained 2x offered load its
queue depth and waits grow without bound while the shedding
configuration keeps p99 flat and sheds the excess.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import ServerBusyError


class AdmissionController:
    """Token-bucket admission for one nucleus's dispatch path."""

    def __init__(self, clock, rate_per_s: float = 2000.0,
                 burst: int = 16,
                 max_queue: Optional[int] = 64) -> None:
        if rate_per_s <= 0.0:
            raise ValueError("rate_per_s must be positive")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        if max_queue is not None and max_queue < 0:
            raise ValueError("max_queue must be non-negative (or None)")
        self.clock = clock
        self.rate_per_ms = rate_per_s / 1000.0
        self.burst = float(burst)
        self.max_queue = max_queue
        self._tokens = float(burst)
        self._last_ms = clock.now
        self.admitted = 0
        self.queued = 0
        self.shed = 0
        self.max_depth = 0
        self.total_wait_ms = 0.0

    def _replenish(self) -> None:
        now = self.clock.now
        elapsed = now - self._last_ms
        if elapsed > 0.0:
            self._tokens = min(self.burst,
                               self._tokens + elapsed * self.rate_per_ms)
            self._last_ms = now

    @property
    def depth(self) -> int:
        """Current virtual dispatch-queue depth (token deficit)."""
        self._replenish()
        deficit = -self._tokens
        return int(deficit) if deficit > 0.0 else 0

    def admit(self, cost: int = 1, priority: int = 2) -> float:
        """Admit *cost* invocations; returns the queue wait in ms.

        ``priority`` is accepted (and ignored) so callers can pass the
        invocation's class uniformly; the class-aware subclass in
        ``repro.overload`` is what actually honours it.

        Raises :class:`ServerBusyError` (shedding the work *unexecuted*)
        when the bounded queue would overflow.  The caller charges the
        returned wait to the virtual clock before dispatching, so
        queueing delay lands inside the server's latency, exactly where
        a real bounded run queue would put it.
        """
        self._replenish()
        projected = self._tokens - cost
        if (self.max_queue is not None
                and -projected > self.max_queue + 1e-9):
            self.shed += cost
            raise ServerBusyError(
                f"server overloaded: dispatch queue at bound "
                f"{self.max_queue}, invocation shed (retryable)")
        self._tokens = projected
        if projected >= 0.0:
            self.admitted += cost
            return 0.0
        depth = int(-projected)
        if depth > self.max_depth:
            self.max_depth = depth
        wait_ms = -projected / self.rate_per_ms
        self.admitted += cost
        self.queued += cost
        self.total_wait_ms += wait_ms
        return wait_ms

    def stats(self) -> Dict[str, object]:
        return {
            "admitted": self.admitted,
            "queued": self.queued,
            "shed": self.shed,
            "depth": self.depth,
            "max_depth": self.max_depth,
            "total_wait_ms": round(self.total_wait_ms, 3),
            "bounded": self.max_queue is not None,
        }

    def __repr__(self) -> str:
        return (f"AdmissionController(rate={self.rate_per_ms * 1000.0}/s, "
                f"depth={self.depth}, shed={self.shed})")
