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
When the deficit would exceed its priority class's queue bound the
invocation is shed *before execution*: a shed is a promise that the
operation did not run, which is what lets clients (and the
``linearizable`` check oracle) treat it as never executed rather than
ambiguous.

Each class's bound, and the text of its shed error, is fixed at
construction.  Classless (``classes=False``), every class shares the
whole bound ``max_queue``: a critical write and a background scan are
equally likely to be dropped.  Class-aware (``classes=True``, ROADMAP
item C23's "priority classes honoured by the admission controller"),
class ``p`` may occupy the cumulative share of :attr:`CLASS_WEIGHTS`
up to ``p``, so as the queue grows class 0 hits its (small) bound first
and is shed while class 3 still has headroom.  Within one virtual
instant the deficit only grows (tokens replenish with elapsed time,
which is zero), so once class ``p`` is shed every later attempt by a
class below ``p`` at the same instant is shed too — the invariant the
``overload_safety`` oracle's no-priority-inversion clause checks.  A
:class:`~repro.overload.admission.BrownoutController`, when given, sheds
every class below its level before the bucket is consulted.

``max_queue=None`` disables shedding — the unbounded-queue baseline the
C20 benchmark measures against: under sustained 2x offered load its
queue depth and waits grow without bound while the shedding
configuration keeps p99 flat and sheds the excess.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.errors import ServerBusyError
from repro.overload.admission import BrownoutController
from repro.overload.deadline import DEFAULT_PRIORITY, NUM_CLASSES


class AdmissionController:
    """Token-bucket admission for one nucleus's dispatch path."""

    #: Relative queue share of each priority class, least important
    #: first, when admission is class-aware.
    CLASS_WEIGHTS = (1.0, 2.0, 4.0, 8.0)

    def __init__(self, clock, rate_per_s: float = 2000.0,
                 burst: int = 16, max_queue: Optional[int] = 64,
                 brownout: Optional[BrownoutController] = None,
                 classes: bool = False) -> None:
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
        self.brownout = brownout
        #: Per class: the deficit past which it is shed, and the text
        #: of the error that sheds it.
        self._limits: List[Tuple[float, str]] = []
        total = sum(self.CLASS_WEIGHTS)
        cumulative = 0.0
        for priority, weight in enumerate(self.CLASS_WEIGHTS):
            cumulative += weight
            if max_queue is None:
                bound, text = math.inf, ""
            elif classes:
                bound = max_queue * cumulative / total  # last: max_queue
                text = (f"server overloaded: class {priority} dispatch "
                        f"queue at bound {round(bound, 3)}, invocation "
                        f"shed (retryable)")
            else:
                bound = max_queue
                text = (f"server overloaded: dispatch queue at bound "
                        f"{max_queue}, invocation shed (retryable)")
            self._limits.append((bound, text))
        self._tokens = float(burst)
        self._last_ms = clock.now
        self.admitted = 0
        self.queued = 0
        self.shed = 0
        self.max_depth = 0
        self.total_wait_ms = 0.0
        self.class_admitted = [0] * NUM_CLASSES
        self.class_shed = [0] * NUM_CLASSES
        self.brownout_shed = 0
        #: When set, every verdict is logged as (clock, priority,
        #: verdict) — evidence for the no-priority-inversion clause.
        self.record_events = False
        self.events: List[Tuple[float, int, str]] = []

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

    def admit(self, cost: int = 1,
              priority: int = DEFAULT_PRIORITY) -> float:
        """Admit *cost* invocations of class *priority*; returns the
        queue wait in ms.

        Raises :class:`ServerBusyError` (shedding the work *unexecuted*)
        when the brownout level is above the class or the class's queue
        bound would overflow.  The caller charges the returned wait to
        the virtual clock before dispatching, so queueing delay lands
        inside the server's latency, exactly where a real bounded run
        queue would put it.
        """
        priority = max(0, min(NUM_CLASSES - 1, int(priority)))
        self._replenish()
        brownout = self.brownout
        if brownout is not None and brownout.level > priority:
            self.shed += cost
            self.class_shed[priority] += cost
            self.brownout_shed += cost
            if self.record_events:
                self.events.append((self.clock.now, priority, "shed"))
            raise ServerBusyError(
                f"server browning out: class {priority} shed at "
                f"brownout level {brownout.level} (retryable)")
        projected = self._tokens - cost
        bound, text = self._limits[priority]
        if -projected > bound + 1e-9:
            self.shed += cost
            self.class_shed[priority] += cost
            if self.record_events:
                self.events.append((self.clock.now, priority, "shed"))
            raise ServerBusyError(text)
        self._tokens = projected
        self.admitted += cost
        self.class_admitted[priority] += cost
        if self.record_events:
            self.events.append((self.clock.now, priority, "admit"))
        if projected >= 0.0:
            if brownout is not None:
                brownout.observe(0.0)
            return 0.0
        depth = int(-projected)
        if depth > self.max_depth:
            self.max_depth = depth
        wait_ms = -projected / self.rate_per_ms
        self.queued += cost
        self.total_wait_ms += wait_ms
        if brownout is not None:
            brownout.observe(wait_ms)
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

    def class_stats(self) -> Dict[str, object]:
        return {
            "admitted": list(self.class_admitted),
            "shed": list(self.class_shed),
            "brownout_shed": self.brownout_shed,
            "brownout_level": (self.brownout.level
                               if self.brownout is not None else 0),
        }
