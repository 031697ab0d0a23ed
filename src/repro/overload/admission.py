"""Class-aware admission control and brownout.

ROADMAP item C23 asks for "priority classes honoured by the PR 5
admission controller".  The PR 5 :class:`~repro.perf.admission.
AdmissionController` sheds classlessly: at the queue bound a critical
write and a background scan are equally likely to be dropped.  The
class-aware subclass keeps the same token-deficit model but gives each
priority class its own *monotone* queue bound — class ``p`` may occupy
the cumulative weight share of the full bound, so when the queue
grows, class 0 hits its (small) bound first and is shed while class 3
still has headroom.  Within one virtual instant the deficit only grows
(tokens replenish with elapsed time, which is zero), so once class
``p`` is shed every later attempt by a class below ``p`` at the same
instant is shed too — the invariant the ``overload_safety`` oracle's
no-priority-inversion clause checks.

The :class:`BrownoutController` adds the adaptive half: it watches the
queue waits of *admitted* work and steps a brownout level 0-3 up when
the observed p99 exceeds the target (and back down once it clears).
At level ``L`` every class below ``L`` is shed outright, before even
consulting the bucket — progressively browning out background work to
keep the waits of what still runs bounded.  The level is re-evaluated
at most once per virtual instant so it is constant within an instant,
preserving the inversion-freedom invariant.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.errors import ServerBusyError
from repro.overload.deadline import DEFAULT_PRIORITY, NUM_CLASSES
from repro.perf.admission import AdmissionController


class BrownoutController:
    """Steps shed-aggressiveness from observed queue-wait p99."""

    #: The highest level: every class but the most important is shed.
    max_level = NUM_CLASSES - 1

    def __init__(self, clock, target_p99_ms: float = 20.0,
                 window: int = 32) -> None:
        self.clock = clock
        self.target_p99_ms = target_p99_ms
        self.window = window
        self.level = 0
        self.escalations = 0
        self.relaxations = 0
        self._waits: deque = deque(maxlen=window)
        self._last_eval = clock.now

    def observe(self, wait_ms: float) -> None:
        self._waits.append(wait_ms)
        now = self.clock.now
        # Re-evaluate at most once per virtual instant: the level must
        # be constant within an instant (no priority inversion).
        if now <= self._last_eval or len(self._waits) < self.window:
            return
        self._last_eval = now
        ordered = sorted(self._waits)
        p99 = ordered[min(len(ordered) - 1,
                          int(len(ordered) * 0.99))]
        if p99 > self.target_p99_ms and self.level < self.max_level:
            self.level += 1
            self.escalations += 1
            self._waits.clear()
        elif p99 <= self.target_p99_ms * 0.5 and self.level > 0:
            self.level -= 1
            self.relaxations += 1
            self._waits.clear()

    def stats(self) -> Dict[str, object]:
        return {
            "level": self.level,
            "target_p99_ms": self.target_p99_ms,
            "escalations": self.escalations,
            "relaxations": self.relaxations,
        }


class ClassAdmissionController(AdmissionController):
    """Token-bucket admission with weighted per-class queue bounds."""

    def __init__(self, clock, rate_per_s: float = 2000.0,
                 burst: int = 16, max_queue: Optional[int] = 64,
                 weights: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0),
                 brownout: Optional[BrownoutController] = None) -> None:
        super().__init__(clock, rate_per_s, burst, max_queue)
        if len(weights) != NUM_CLASSES:
            raise ValueError(f"need {NUM_CLASSES} class weights")
        if any(w <= 0.0 for w in weights):
            raise ValueError("class weights must be positive")
        self.weights = tuple(float(w) for w in weights)
        total = sum(self.weights)
        if max_queue is None:
            self._bounds: Tuple[Optional[float], ...] = \
                (None,) * NUM_CLASSES
        else:
            bounds: List[float] = []
            cumulative = 0.0
            for weight in self.weights:
                cumulative += weight
                bounds.append(max_queue * cumulative / total)
            self._bounds = tuple(bounds)  # last == max_queue exactly
        self.brownout = brownout
        self.class_admitted = [0] * NUM_CLASSES
        self.class_shed = [0] * NUM_CLASSES
        self.brownout_shed = 0
        #: When set, every verdict is logged as (clock, priority,
        #: verdict) — evidence for the no-priority-inversion clause.
        self.record_events = False
        self.events: List[Tuple[float, int, str]] = []

    def _note(self, priority: int, verdict: str) -> None:
        if self.record_events:
            self.events.append((self.clock.now, priority, verdict))

    def admit(self, cost: int = 1,
              priority: int = DEFAULT_PRIORITY) -> float:
        priority = max(0, min(NUM_CLASSES - 1, int(priority)))
        self._replenish()
        if self.brownout is not None and self.brownout.level > priority:
            self.shed += cost
            self.class_shed[priority] += cost
            self.brownout_shed += cost
            self._note(priority, "shed")
            raise ServerBusyError(
                f"server browning out: class {priority} shed at "
                f"brownout level {self.brownout.level} (retryable)")
        projected = self._tokens - cost
        bound = self._bounds[priority]
        if bound is not None and -projected > bound + 1e-9:
            self.shed += cost
            self.class_shed[priority] += cost
            self._note(priority, "shed")
            raise ServerBusyError(
                f"server overloaded: class {priority} dispatch queue "
                f"at bound {round(bound, 3)}, invocation shed "
                f"(retryable)")
        self._tokens = projected
        self.admitted += cost
        self.class_admitted[priority] += cost
        self._note(priority, "admit")
        if projected >= 0.0:
            if self.brownout is not None:
                self.brownout.observe(0.0)
            return 0.0
        depth = int(-projected)
        if depth > self.max_depth:
            self.max_depth = depth
        wait_ms = -projected / self.rate_per_ms
        self.queued += cost
        self.total_wait_ms += wait_ms
        if self.brownout is not None:
            self.brownout.observe(wait_ms)
        return wait_ms

    def class_stats(self) -> Dict[str, object]:
        return {
            "admitted": list(self.class_admitted),
            "shed": list(self.class_shed),
            "brownout_shed": self.brownout_shed,
            "brownout_level": (self.brownout.level
                               if self.brownout is not None else 0),
        }
