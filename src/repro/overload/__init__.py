"""Overload robustness: deadline propagation, retry budgets, brownout.

The mechanisms that keep a transparent infrastructure dependable when
the threat is not a crash or a partition but *its own clients*: a
transient stall turns into naive retransmissions from every layer, and
without shared budgets, propagated deadlines and class-aware shedding
the system settles into a metastable state where all capacity is spent
on work nobody is still waiting for.

Class-aware shedding is :class:`~repro.perf.admission.AdmissionController`
built with ``classes=True``; this package adds its brownout.
"""

from repro.overload.admission import BrownoutController
from repro.overload.budget import RetryBudget, RetryBudgetRegistry
from repro.overload.deadline import (
    DEADLINE_KEY,
    DEFAULT_PRIORITY,
    NUM_CLASSES,
    PRIORITY_KEY,
    DeadlineGate,
    deadline_of,
    priority_of,
)

__all__ = [
    "BrownoutController",
    "RetryBudget",
    "RetryBudgetRegistry",
    "DEADLINE_KEY",
    "DEFAULT_PRIORITY",
    "NUM_CLASSES",
    "PRIORITY_KEY",
    "DeadlineGate",
    "deadline_of",
    "priority_of",
]

