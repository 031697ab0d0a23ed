"""Brownout: adaptive shedding for the admission controller.

The :class:`BrownoutController` watches the queue waits of *admitted*
work at a :class:`~repro.perf.admission.AdmissionController` and steps
a brownout level 0-3 up when the observed p99 exceeds the target (and
back down once it clears).  At level ``L`` the controller sheds every
class below ``L`` outright, before even consulting the bucket —
progressively browning out background work to keep the waits of what
still runs bounded.  The level is re-evaluated at most once per virtual
instant so it is constant within an instant, preserving the class-aware
controller's inversion-freedom invariant.
"""

from __future__ import annotations

from collections import deque
from typing import Dict

from repro.overload.deadline import NUM_CLASSES


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
