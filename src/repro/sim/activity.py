"""Cooperative activities (overlapped execution).

Paper, section 4.1: "concurrency is the norm in a distributed system and
program executions are truly overlapped".  The activity runtime lets tests
and the transaction runner run several logical threads of control against
the one virtual clock.  An activity is a Python generator that yields
scheduling primitives:

* ``Sleep(ms)``      — resume after virtual time passes,
* any other yielded value is treated as ``Sleep(0)`` (a cooperative yield).

Waiting for a condition is a poll loop in the activity itself::

    while not ready():
        yield Sleep(2.0)

Activities interleave deterministically: ties on the clock are broken by
scheduling order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, List, Optional

from repro.sim.scheduler import Scheduler


@dataclass
class Sleep:
    """Yield from an activity: resume after *delay* virtual ms."""

    delay: float = 0.0


class Activity:
    """A logical thread of control driven by the activity runtime."""

    def __init__(self, runtime: "ActivityRuntime", name: str,
                 generator: Generator) -> None:
        self.runtime = runtime
        self.name = name
        self._gen = generator
        self.done = False
        self.result: Any = None
        self.error: Optional[BaseException] = None

    def _advance(self) -> None:
        try:
            yielded = next(self._gen)
        except StopIteration as stop:
            self.done = True
            self.result = stop.value
            return
        except BaseException as exc:  # noqa: BLE001 - recorded, not hidden
            self.done = True
            self.error = exc
            return
        delay = yielded.delay if isinstance(yielded, Sleep) else 0.0
        self.runtime.scheduler.after(delay, self._advance,
                                     label=f"wake:{self.name}")


class ActivityRuntime:
    """Runs activities against a scheduler's virtual clock."""

    def __init__(self, scheduler: Scheduler) -> None:
        self.scheduler = scheduler
        self.activities: List[Activity] = []

    def spawn(self, generator: Generator, name: str = "") -> Activity:
        """Start a new activity; it takes its first step at the current time."""
        activity = Activity(self, name or f"activity-{len(self.activities)}",
                            generator)
        self.activities.append(activity)
        self.scheduler.after(0.0, activity._advance,
                             label=f"start:{activity.name}")
        return activity

    def run_all(self, max_events: int = 1_000_000) -> None:
        """Drive the scheduler until every activity has finished.

        An activity that is not done has a wake-up queued, so a drained
        queue means every activity finished; one that never does (an
        endless poll loop) trips *max_events*.  Raises the first activity
        error encountered (after the run) so test failures inside
        activities are not swallowed.
        """
        self.scheduler.run_until_idle(max_events=max_events)
        for activity in self.activities:
            if activity.error is not None:
                raise activity.error
