"""Phi-accrual failure detection from observed heartbeats.

The detector never consults the fault plan: its *only* inputs are the
virtual-clock arrival times of heartbeats that got through.  A
:class:`~repro.heal.heartbeat.HeartbeatMonitor` computes those arrivals
from its beat streams, and the detector has the monitor fold them up to
the clock before it answers any question.  For every monitored
``(node, capsule)`` endpoint it keeps a sliding window of inter-arrival
times and computes the suspicion level phi — the negative
log-probability, under a normal fit of the observed inter-arrival
distribution, that a heartbeat could still be merely late rather than
missing (Hayashibara et al.'s accrual detector, adapted to virtual
time).  Crossing a tunable threshold turns the endpoint ``suspect``; a
later arrival turns it back ``alive``, which is how false suspicions (a
gray link, a flaky window) are distinguished from real crashes — they
*accrue* and then recover.

Detection latency is therefore a measured property of heartbeat period,
network behaviour and threshold — not an oracle lookup.

The detector is asked far more often than anything changes, so what it
answers from is kept current where state changes (``watch``, arrivals,
``poll``, ``reset``) instead of being rescanned per question: a per-node
count of alive endpoints behind the node verdicts, a window fit computed
only when phi is asked about a window that changed, and a quiet bound
under which ``poll`` need not ask at all.

Its *verdict reads* (``poll()``, ``node_alive``, ``node_counts``) skip
the fold before ``quiet_until`` (see :mod:`repro.heal.heartbeat`).
"""

from __future__ import annotations

import math
from collections import deque
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

#: phi is capped here: erfc underflows to 0 around z ~ 27, and "the
#: 10^-40 chance this is a late heartbeat" is already certainty.
PHI_CAP = 40.0

EndpointKey = Tuple[str, str]  # (node, capsule)


def _phi_at(z: float) -> float:
    """phi for a heartbeat *z* fitted deviations (over sqrt 2) late."""
    tail = 0.5 * math.erfc(z)  # P(inter-arrival > elapsed)
    if tail <= 10.0 ** -PHI_CAP:
        return PHI_CAP
    return -math.log10(tail)


@lru_cache(maxsize=None)
def _quiet_z(threshold: float) -> float:
    """The largest z, less a hair, at which phi cannot top *threshold*."""
    if _phi_at(0.0) > threshold:
        return float("-inf")  # suspicious even when exactly on time
    safe, unsafe = 0.0, 64.0  # erfc underflows long before 64
    for _ in range(64):
        mid = (safe + unsafe) / 2.0
        if _phi_at(mid) <= threshold:
            safe = mid
        else:
            unsafe = mid
    # The hair covers libm's erfc not being monotone to the last bit.
    return safe * (1.0 - 1e-9)


class _Arrivals:
    """Heartbeat history for one monitored endpoint."""

    __slots__ = ("last_arrival", "last_heard", "intervals", "state",
                 "arrivals", "fit")

    def __init__(self, now: float, prime_interval: float,
                 window: int) -> None:
        self.last_arrival = now
        #: Time of the last *real* arrival — unlike ``last_arrival``
        #: this is never re-primed by :meth:`PhiAccrualDetector.reset`,
        #: so it is positive evidence, not benefit of the doubt.
        self.last_heard = float("-inf")
        # Prime the window with the configured period so phi is
        # meaningful before the first real arrival.
        self.intervals: deque = deque([prime_interval, prime_interval],
                                      maxlen=window)
        self.state = "alive"
        self.arrivals = 0
        #: ``(mean, sigma)`` of ``intervals``; None once the window has
        #: changed, until phi is next asked for.
        self.fit: Optional[Tuple[float, float]] = None


class PhiAccrualDetector:
    """Adaptive accrual failure detector over heartbeat arrivals."""

    def __init__(self, clock, expected_interval_ms: float = 50.0,
                 threshold: float = 8.0, window: int = 64) -> None:
        if expected_interval_ms <= 0:
            raise ValueError("heartbeat interval must be positive")
        if threshold <= 0:
            raise ValueError("phi threshold must be positive")
        self.clock = clock
        self.expected_interval_ms = expected_interval_ms
        self.threshold = threshold
        self.window = window
        #: Floor on the fitted stddev: with a metronomic virtual-time
        #: emitter the measured variance collapses to ~0 and a heartbeat
        #: one jitter-quantum late would look infinitely suspicious.
        self.min_stddev_ms = expected_interval_ms / 4.0
        #: Below this much silence phi cannot top the threshold whatever
        #: the window holds: intervals are never negative, so the fitted
        #: mean is not, and sigma is at least the floor, so
        #: z <= elapsed / (floor * sqrt 2).
        self._quiet_ms = _quiet_z(threshold) * (self.min_stddev_ms
                                                * math.sqrt(2.0))
        self._tracked: Dict[EndpointKey, _Arrivals] = {}
        #: ``_tracked`` in key order, the order ``poll`` reports in.
        self._order: List[Tuple[EndpointKey, _Arrivals]] = []
        #: node -> [endpoints, alive endpoints]
        self._nodes: Dict[str, List[int]] = {}
        #: Nodes with endpoints but no alive one.
        self._silent = 0
        self._listeners: List[Callable] = []
        #: Folds the beat streams feeding this detector up to the clock;
        #: every read calls it first (a ``HeartbeatMonitor`` sets it), a
        #: verdict read only from ``quiet_until`` on.
        self.catch_up: Callable[[], None] = lambda: None
        self.quiet_until = -math.inf
        self.heartbeats_observed = 0
        self.suspicions = 0
        self.recoveries = 0

    # -- registration --------------------------------------------------------

    def watch(self, node: str, capsule: str) -> _Arrivals:
        """Start monitoring an endpoint (idempotent); returns its record."""
        key = (node, capsule)
        record = self._tracked.get(key)
        if record is not None:
            return record
        record = self._tracked[key] = _Arrivals(
            self.clock.now, self.expected_interval_ms, self.window)
        self.quiet_until = -math.inf
        self._order = sorted(self._tracked.items())
        if node not in self._nodes:
            self._nodes[node] = [1, 1]
        else:
            self._nodes[node][0] += 1
            self._count(node, +1)
        return record

    def on_transition(self, listener: Callable) -> None:
        """Register ``listener(key, old_state, new_state, phi)``."""
        self._listeners.append(listener)

    def _count(self, node: str, change: int) -> None:
        """An endpoint of *node* turned alive (+1) or suspect (-1)."""
        counts = self._nodes[node]
        was_silent = counts[1] == 0
        counts[1] += change
        self._silent += (counts[1] == 0) - was_silent

    # -- observation ---------------------------------------------------------

    def observe(self, node: str, capsule: str) -> None:
        """A heartbeat from (node, capsule) arrived *now*."""
        key = (node, capsule)
        record = self._tracked.get(key)
        if record is None:
            return  # unsolicited heartbeat: not monitored
        if self._arrive(node, record, [self.clock.now]) is not None:
            self._notify(key, "suspect", "alive", 0.0)

    def _arrive(self, node: str, record: _Arrivals,
                times: List[float]) -> Optional[float]:
        """Book arrivals at *times*, in order; returns the time of one that
        ends a suspicion, if one does (the caller tells the listeners)."""
        # Bound the recorded sample: the silence of an outage that ends
        # in a recovery (a healed partition, a restarted node) is not
        # natural arrival variance.  Folding it into the window would
        # inflate the fitted stddev and blunt detection of the *next*
        # failure for a whole window's worth of beats.
        bound = 4.0 * self.expected_interval_ms
        intervals, last = record.intervals, record.last_arrival
        for now in times:
            intervals.append(now - last if now - last < bound else bound)
            last = now
        record.fit = None
        record.last_arrival = record.last_heard = times[-1]
        record.arrivals += len(times)
        self.heartbeats_observed += len(times)
        if record.state == "suspect":
            record.state = "alive"
            self._count(node, +1)
            self.recoveries += 1
            return times[0]
        return None

    # -- the accrual value ---------------------------------------------------

    def phi(self, node: str, capsule: str,
            now: Optional[float] = None) -> float:
        """Current suspicion level for one endpoint."""
        self.catch_up()
        record = self._tracked.get((node, capsule))
        if record is None:
            return 0.0
        if now is None:
            now = self.clock.now
        elapsed = now - record.last_arrival
        fit = record.fit
        if fit is None:
            intervals = record.intervals
            mean = sum(intervals) / len(intervals)
            variance = sum((x - mean) ** 2
                           for x in intervals) / len(intervals)
            fit = record.fit = (
                mean, max(math.sqrt(variance), self.min_stddev_ms))
        mean, sigma = fit
        return _phi_at((elapsed - mean) / (sigma * math.sqrt(2.0)))

    # -- evaluation ----------------------------------------------------------

    def poll(self, now: Optional[float] = None
             ) -> List[Tuple[EndpointKey, float]]:
        """Evaluate every endpoint; returns the newly suspected ones."""
        if now is None:
            now = self.clock.now
            if now < self.quiet_until:
                return []
        self.catch_up()
        quiet_ms = self._quiet_ms
        newly: List[Tuple[EndpointKey, float]] = []
        for key, record in self._order:
            if record.state != "alive" or \
                    now - record.last_arrival < quiet_ms:
                continue
            value = self.phi(key[0], key[1], now)
            if value > self.threshold:
                record.state = "suspect"
                self._count(key[0], -1)
                self.suspicions += 1
                newly.append((key, value))
                self._notify(key, "alive", "suspect", value)
        return newly

    # -- aggregated node-level verdicts --------------------------------------

    def node_alive(self, node: str) -> bool:
        """A node is alive while *any* of its endpoints still is.

        Unknown nodes are presumed alive: absence of monitoring is not
        evidence of failure.
        """
        if self.clock.now >= self.quiet_until:
            self.catch_up()
        counts = self._nodes.get(node)
        return counts is None or counts[1] > 0

    def node_heard(self, node: str, within_ms: float) -> bool:
        """Positive evidence: a real heartbeat from *node* arrived in
        the last *within_ms*.  Resets and priming do not count, which
        is what lets a vantage point distinguish "this node is beating
        at *me*" (partition) from "this node beats at nobody" (crash).
        """
        self.catch_up()
        now = self.clock.now
        for key, record in self._tracked.items():
            if key[0] == node and record.arrivals > 0 and \
                    now - record.last_heard <= within_ms:
                return True
        return False

    def node_counts(self) -> Tuple[int, int]:
        """``(nodes monitored, nodes among them with no alive
        endpoint)`` — what a blind *observer* is told apart from a dead
        fleet by."""
        if self.clock.now >= self.quiet_until:
            self.catch_up()
        return len(self._nodes), self._silent

    def reset(self) -> None:
        """Re-prime every endpoint as alive-as-of-now (observer rehome)."""
        self.catch_up()
        now = self.clock.now
        for record in self._tracked.values():
            record.last_arrival = now
            record.state = "alive"
        for counts in self._nodes.values():
            counts[1] = counts[0]
        self._silent = 0

    def _notify(self, key: EndpointKey, old: str, new: str,
                phi: float) -> None:
        for listener in self._listeners:
            listener(key, old, new, phi)

    def stats(self) -> Dict[str, int]:
        self.catch_up()
        return {
            "watched": len(self._tracked),
            "heartbeats_observed": self.heartbeats_observed,
            "suspicions": self.suspicions,
            "recoveries": self.recoveries,
        }
