"""Circuit breakers over access paths.

A reference may carry several access paths (section 5.4); when one of
them leads to a crashed or partitioned node, every invocation that
insists on probing it first pays the failure before failing over.  A
:class:`CircuitBreaker` per (node, protocol) pair remembers recent
failures so path selection can skip dead paths outright:

* **closed** — traffic flows; consecutive failures are counted;
* **open** — after ``failure_threshold`` consecutive failures the
  breaker rejects traffic for ``reset_timeout_ms`` of virtual time;
* **half-open** — after the cooldown one probe is let through: success
  closes the breaker, failure re-opens it (and re-arms the cooldown).

Only :class:`~repro.errors.NodeUnreachableError` feeds the breaker —
probabilistic message loss is the retry policy's problem, not evidence
that a path is dead.
"""

from __future__ import annotations

import enum
from typing import Dict, Tuple

from repro.sim.clock import VirtualClock


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Failure memory for one (node, protocol) access path."""

    def __init__(self, clock: VirtualClock,
                 failure_threshold: int = 5,
                 reset_timeout_ms: float = 250.0) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout_ms < 0.0:
            raise ValueError("reset_timeout_ms must be non-negative")
        self.clock = clock
        self.failure_threshold = failure_threshold
        self.reset_timeout_ms = reset_timeout_ms
        self.state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self.trips = 0
        self.rejections = 0
        self.failures = 0

    def allow(self) -> bool:
        """May an attempt be made now?  Open -> half-open on cooldown."""
        if self.state == BreakerState.OPEN:
            if self.clock.now - self._opened_at >= self.reset_timeout_ms:
                self.state = BreakerState.HALF_OPEN
                return True
            self.rejections += 1
            return False
        return True

    def record_success(self) -> None:
        self._consecutive_failures = 0
        self.state = BreakerState.CLOSED

    def record_failure(self) -> None:
        self.failures += 1
        self._consecutive_failures += 1
        if (self.state == BreakerState.HALF_OPEN
                or self._consecutive_failures >= self.failure_threshold):
            if self.state != BreakerState.OPEN:
                self.trips += 1
            self.state = BreakerState.OPEN
            self._opened_at = self.clock.now
            self._consecutive_failures = 0

    def __repr__(self) -> str:
        return (f"CircuitBreaker({self.state.value}, "
                f"trips={self.trips}, rejections={self.rejections})")


class BreakerRegistry:
    """All of one nucleus's breakers, keyed by (node, protocol)."""

    def __init__(self, clock: VirtualClock,
                 failure_threshold: int = 5,
                 reset_timeout_ms: float = 250.0) -> None:
        self.clock = clock
        self.failure_threshold = failure_threshold
        self.reset_timeout_ms = reset_timeout_ms
        self._breakers: Dict[Tuple[str, str], CircuitBreaker] = {}

    def breaker_for(self, node: str,
                    protocol: str = "rrp") -> CircuitBreaker:
        key = (node, protocol)
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(self.clock, self.failure_threshold,
                                     self.reset_timeout_ms)
            self._breakers[key] = breaker
        return breaker

    def snapshot(self) -> Dict[str, int]:
        """Aggregate counters for the management monitor."""
        trips = rejections = open_now = 0
        for breaker in self._breakers.values():
            trips += breaker.trips
            rejections += breaker.rejections
            if breaker.state != BreakerState.CLOSED:
                open_now += 1
        return {"trips": trips, "rejections": rejections,
                "open": open_now, "paths": len(self._breakers)}

    def __len__(self) -> int:
        return len(self._breakers)
