"""Client-side counters, aggregated per nucleus.

Transports and batch clients are per-channel and per-capsule objects; to
give the management viewpoint (section 7.4) one place to read, each also
counts what it did on its nucleus's :class:`ResilienceStats` and
:class:`BatchStats`.  The monitor folds these into
``domain_report()["resilience"]`` and ``["perf"]``, together with the
breaker and reply-cache counters.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ResilienceStats:
    """What the resilience layer did on behalf of one node's clients."""

    #: Retransmissions after message loss.
    retries: int = 0
    #: Total virtual time spent in backoff waits.
    backoff_wait_ms: float = 0.0
    #: Times an exhausted or dead path was abandoned for the next one.
    path_failovers: int = 0
    #: Attempts skipped outright because a breaker was open.
    breaker_short_circuits: int = 0
    #: Transport retries after the server shed the attempt as busy.
    busy_retries: int = 0


@dataclass
class BatchStats:
    """What one node's batch clients did, all of them together."""

    batchers: int = 0
    calls: int = 0
    batches_sent: int = 0
    invocations_batched: int = 0
    retransmits: int = 0
    busy_failures: int = 0
