"""Heartbeats as arithmetic: beat streams, computed when they are read.

Every watched ``(node, capsule)`` endpoint beats to the current
*observer* node on a fixed period, staggered by a deterministic phase.
No beat is a scheduler event or a network message: each endpoint is one
:class:`BeatStream`, folded up to the clock whenever the
:class:`~repro.heal.detector.PhiAccrualDetector` is read and up to each
change of the fault plan before it applies, so each fold sees a
constant fault state.  A beat keeps a one-way post's rules: a crashed
source sends nothing, the delay is the latency model's times the gray
factor at send time, the plan's one drop rate draws from the stream's
own random fork (never a one-shot ``lose_next``), a link blocked on
arrival drops it, and a beat arriving after its observer was replaced is
ignored.
Unlike a post's, a beat's delay has no jitter.  A recovery is told when
the fold delivering its beat runs (a detector read or a fault change).
``tests/heal_beats_reference.py`` sends the same beats one scheduler
event at a time, and the tests hold the streams to it.

Exact detector reads and fault-plan changes fold; verdict reads
(``poll()``, ``node_alive``, ``node_counts``) do not while the monitor
is *settled*: each stream has its terms read, is not crashed, lossy or
blocked, its endpoint alive, its beats in flight bound for the observer
and landing no later than the next send's.  Such a stream beats a period apart
after its next arrival, under the detector's quiet bound, so until
``quiet_until`` (the plan's next transition, or a stream's silence first
reaching the bound) no verdict can differ.  ``watch``, ``rehome``,
``stop`` and fault-plan changes (attaching a schedule too) end it.

The observer is itself a fallible node.  When the detector reports a
majority of endpoints suspect at once, the supervisor calls
:meth:`HeartbeatMonitor.rehome` to rotate observation to the next node
(deterministically, in address order) and re-prime the detector —
distinguishing "everyone died" from "I went deaf".
"""

from __future__ import annotations

import hashlib
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

INF = float("inf")


class BeatStream:
    """The beats one watched endpoint sends one monitor's observer.

    Beat k leaves at ``first + k * interval``; ``sent`` beats have left
    and the next is ``due``.  ``flight`` is a heap of ``(arrival, left
    at, observer)``; ``terms`` is ``(crashed, loss rate, delay,
    blocked)`` for the link to the observer, read once per change of
    fault plan or observer.  ``rng`` is forked at the first lossy fold.
    """

    __slots__ = ("node", "capsule", "record", "size", "rng", "first",
                 "sent", "due", "flight", "terms")

    def __init__(self, node: str, capsule: str, record,
                 first: float) -> None:
        self.node, self.capsule, self.rng = node, capsule, None
        self.record = record  # the detector's record of the endpoint
        self.size = len(f"{node}|{capsule}".encode("utf-8"))  # wire bytes
        self.first = self.due = first
        self.sent = 0
        self.flight: List[Tuple[float, float, str]] = []
        self.terms = None


class HeartbeatMonitor:
    """Computes and delivers heartbeats for one domain's supervisor."""

    def __init__(self, domain, detector,
                 interval_ms: float = 50.0,
                 home: Optional[str] = None) -> None:
        if interval_ms <= 0:
            raise ValueError("heartbeat interval must be positive")
        self.domain = domain
        self.detector = detector
        detector.catch_up = self.catch_up
        self.interval_ms = interval_ms
        #: Preferred initial observer node (vantage placement); falls
        #: back to the first address in sort order when absent.
        self.home = home
        #: Stream label, minted per world so concurrent monitors (and
        #: identically-seeded runs) stay deterministic and disjoint.
        self.kind = domain.mint("hb")
        self.observer: str = ""
        self.clock = domain.scheduler.clock
        self.faults = domain.network.faults
        self._streams: Dict[Tuple[str, str], BeatStream] = {}
        self.next_at = INF  # the earliest send or arrival of any stream
        self._sent = 0
        self.rehomes = 0
        self.running = False

    @property
    def beats_sent(self) -> int:
        self.catch_up()
        return self._sent

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self.running:
            return
        addresses = sorted(self.domain.nuclei)
        if not addresses:
            raise RuntimeError(
                f"domain {self.domain.name} has no nodes to observe from")
        self.running = True
        # Nothing beat while emission was stopped: that silence says
        # nothing about the fleet and must not be held against it.
        self.detector.reset()
        if self.home is not None and self.home in addresses:
            self.observer = self.home
        else:
            self.observer = addresses[0]
        self.faults.watchers.append(self._changed)

    def stop(self) -> None:
        """Fold up to now, then send and deliver no more beats."""
        if not self.running:
            return
        self.catch_up()
        self.faults.watchers.remove(self._changed)
        self._streams.clear()
        self.next_at = INF
        self.detector.quiet_until = -INF
        self.running = False

    # -- watching ------------------------------------------------------------

    def watch(self, node: str, capsule: str) -> None:
        """Start sending (and expecting) heartbeats for an endpoint (the
        streams follow the fault plan from ``start`` to ``stop``)."""
        if (node, capsule) in self._streams:
            return
        first = self.clock.now + self._phase(node, capsule)
        self._streams[(node, capsule)] = BeatStream(
            node, capsule, self.detector.watch(node, capsule), first)
        self.next_at = min(self.next_at, first)

    def watches(self, node: str, capsule: str) -> bool:
        return (node, capsule) in self._streams

    # -- observer fail-over --------------------------------------------------

    def rehome(self) -> None:
        """Rotate observation to the next node and re-prime the detector.

        The rotation is blind — the monitor cannot know which nodes are
        alive without observing from them — but it is deterministic and
        converges: a dead observer hears nothing, goes majority-suspect
        again, and rotates onward until a live node is reached.
        """
        self.catch_up()
        self._changed(None)
        addresses = sorted(self.domain.nuclei)
        index = (addresses.index(self.observer)
                 if self.observer in addresses else -1)
        self.observer = addresses[(index + 1) % len(addresses)]
        self.rehomes += 1
        self.detector.reset()

    # -- folding -------------------------------------------------------------

    def catch_up(self) -> None:
        """Fold every stream to the clock; window transitions the clock
        passed apply first, each folding the streams to its own time."""
        if self.clock.now >= self.next_at:
            self.faults.pump()
            self.fold(self.clock.now)
            self.detector.quiet_until = self._settled()

    def _changed(self, until: Optional[float]) -> None:
        """The fault plan (or the observer) is about to change: fold to
        *until* (None: the clock) under what held until then, and read
        it afresh after."""
        self.fold(self.clock.now if until is None else until)
        self.detector.quiet_until = -INF
        for stream in self._streams.values():
            stream.terms = None

    def _settled(self) -> float:
        """``quiet_until`` after a fold to the clock (module docstring)."""
        observer, quiet = self.observer, self.detector._quiet_ms
        until = (self.faults.next_transition()
                 if self.interval_ms < quiet else -INF)
        for key, record in self.detector._order:
            # An endpoint no stream feeds (since a restart) may go suspect.
            stream = self._streams.get(key)
            terms = None if stream is None else stream.terms
            if terms is None or terms[0] or terms[1] or terms[3] or \
                    record.state != "alive":
                return -INF
            last = record.last_arrival
            landing = stream.due + terms[2]  # the next send's beat
            for arrival, _, sent_to in [*sorted(stream.flight),
                                        (landing, None, observer)]:
                if sent_to != observer or arrival > landing:
                    return -INF
                if arrival - last >= quiet:
                    until = min(until, last + quiet)
                last = arrival
        return until

    def fold(self, until: float) -> None:
        """Send every beat due by *until* and deliver every beat that
        arrives by then, under the fault state as it stands."""
        if until < self.next_at:
            return
        recovered: List[Tuple[float, Tuple[str, str]]] = []
        next_at = INF
        for stream in self._streams.values():
            flight = stream.flight
            if stream.due <= until or (flight and flight[0][0] <= until):
                self._fold(stream, until, recovered)
            if stream.due < next_at:
                next_at = stream.due
            if flight and flight[0][0] < next_at:
                next_at = flight[0][0]
        self.next_at = next_at
        for _, key in sorted(recovered):
            self.detector._notify(key, "suspect", "alive", 0.0)

    def _fold(self, stream: BeatStream, until: float,
              recovered: List) -> None:
        node, observer, faults = stream.node, self.observer, self.faults
        terms = stream.terms
        if terms is None:  # read once per change of plan or observer
            terms = stream.terms = (
                faults.is_crashed(node), faults.drop_probability,
                self.domain.network.latency.delay(node, observer, stream.size)
                * faults.latency_factor(node, observer),
                faults.link_blocked(node, observer))
            if terms[1] and stream.rng is None:
                stream.rng = self.domain.network.rng.fork(
                    f"{self.kind}/{node}/{stream.capsule}")
        crashed, loss, delay, blocked = terms
        flight, interval, first = stream.flight, self.interval_ms, stream.first
        sent, leave = stream.sent, stream.due
        arrivals: List[float] = []  # in order: direct, then from flight
        while leave <= until:
            sent += 1
            if crashed:
                pass
            elif loss and stream.rng.chance(loss):
                faults.drops += 1
            elif flight or leave + delay > until:  # keep the order
                heappush(flight, (leave + delay, leave, observer))
            elif blocked:
                faults.drops += 1
            else:
                arrivals.append(leave + delay)
            leave = first + sent * interval
        self._sent += sent - stream.sent
        stream.sent, stream.due = sent, leave
        # Deliver, in arrival order, the beats that arrive by *until*.
        while flight and flight[0][0] <= until:
            arrival, _, sent_to = heappop(flight)
            if sent_to != observer:  # replaced since it left
                if faults.link_blocked(node, sent_to):
                    faults.drops += 1
            elif blocked:
                faults.drops += 1
            else:
                arrivals.append(arrival)
        if arrivals:
            ended = self.detector._arrive(node, stream.record, arrivals)
            if ended is not None:
                recovered.append((ended, (node, stream.capsule)))

    def _phase(self, node: str, capsule: str) -> float:
        """Deterministic per-endpoint emission phase in [0, interval)."""
        digest = hashlib.sha256(
            f"{self.kind}|{node}|{capsule}".encode("utf-8")).hexdigest()
        return (int(digest[:8], 16) % 9973) / 9973.0 * self.interval_ms
