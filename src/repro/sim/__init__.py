"""Deterministic discrete-event simulation substrate.

The paper's distributed-system properties — variable latency, overlapped
execution, partial failure — are reproduced on a single machine by running
everything against a virtual clock and an event scheduler.  Nothing in the
platform reads the wall clock or global random state, so every test and
benchmark is exactly reproducible from a seed.
"""

from repro.sim.clock import VirtualClock
from repro.sim.scheduler import Scheduler, Event
from repro.sim.rand import DeterministicRandom
from repro.sim.activity import ActivityRuntime, Activity, Sleep

__all__ = [
    "VirtualClock",
    "Scheduler",
    "Event",
    "DeterministicRandom",
    "ActivityRuntime",
    "Activity",
    "Sleep",
]
