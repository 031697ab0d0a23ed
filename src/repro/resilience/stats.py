"""Client-side resilience counters, aggregated per nucleus.

Transports are per-channel objects; to give the management viewpoint
(section 7.4) one place to read, every transport also increments its
nucleus's :class:`ResilienceStats`.  The monitor folds these into
``domain_report()["resilience"]`` together with the breaker and
reply-cache counters.
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
