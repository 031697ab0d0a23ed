"""Discrete-event scheduler.

Asynchronous platform behaviour — announcements, group multicast delivery,
supervision ticks, lease expiry, GC sweeps — is expressed as events on this
queue.  Heartbeats are not: :mod:`repro.heal.heartbeat` computes each beat
stream when the failure detector reads it.
``run_until_idle`` drains the queue (advancing the virtual clock to each
event's due time), which is how tests and benchmarks let in-flight protocol
activity settle.

The queue is an event wheel over a plain tuple heap: entries are
``(time, seq, event)`` triples so ordering never compares (or even
touches) the event objects, :class:`Event` is a ``__slots__`` record
with O(1) cancellation (a flag checked at fire time — nothing is
removed from the heap), a repeating timer re-pushes one reusable event
instead of making one per repetition, and the drain loops fire
same-instant batches with a single clock advance.  All observable
semantics — same-instant FIFO by schedule order, past events clamped to
*now*, cancelled events never firing, repeating events re-arming after
each firing — are pinned by ``tests/test_sim_clock_scheduler.py``.

A synchronous leg moves the clock with a bare ``clock.advance``, and
nothing fires inside that interval: an event that fell due there fires
late, when a drain loop reaches it.  The loops book each such firing in
:attr:`Scheduler.late` in their past-due branch, with no call, so an
on-time firing costs what it did; :func:`late_by_prefix` folds books.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.sim.clock import VirtualClock


def late_by_prefix(books: Iterable[Dict[str, List]]) -> Dict[str, List]:
    """Late-firing books (:attr:`Scheduler.late`) summed by label
    prefix: ``wake:a1`` and ``chaos@40.0`` book under ``wake`` and
    ``chaos``."""
    folded: Dict[str, List] = {}
    for book in books:
        for label, (count, worst) in book.items():
            booked = folded.setdefault(
                label.partition(":")[0].partition("@")[0], [0, 0.0])
            booked[0] += count
            booked[1] = max(booked[1], worst)
    return folded


class Event:
    """A scheduled callback handle.  Cancellation is O(1): the flag is
    honoured when the wheel reaches the entry."""

    __slots__ = ("time", "seq", "action", "label", "cancelled")

    def __init__(self, time: float, seq: int,
                 action: Callable[[], None], label: str = "") -> None:
        self.time = time
        self.seq = seq
        self.action = action
        self.label = label
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class Scheduler:
    """An event wheel bound to a :class:`VirtualClock`."""

    __slots__ = ("clock", "_queue", "_seq", "events_run", "late")

    def __init__(self, clock: Optional[VirtualClock] = None) -> None:
        self.clock = clock if clock is not None else VirtualClock()
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self.events_run = 0
        #: Event label -> [firings past due, largest lateness in ms].
        self.late: Dict[str, List] = {}

    @property
    def now(self) -> float:
        return self.clock.now

    def at(self, when: float, action: Callable[[], None],
           label: str = "") -> Event:
        """Schedule *action* at absolute virtual time *when*."""
        now = self.clock.now
        if when < now:
            when = now
        seq = self._seq
        self._seq = seq + 1
        event = Event(when, seq, action, label)
        heappush(self._queue, (when, seq, event))
        return event

    def after(self, delay: float, action: Callable[[], None],
              label: str = "") -> Event:
        """Schedule *action* after *delay* ms of virtual time."""
        return self.at(self.clock.now + max(0.0, delay), action, label)

    def every(self, interval: float, action: Callable[[], None],
              label: str = "") -> Event:
        """Schedule a repeating action.  Cancel the returned event to stop.

        The returned event object stays valid across firings: cancellation
        is checked before each repetition.
        """
        if interval <= 0:
            raise ValueError("interval must be positive")
        clock, queue = self.clock, self._queue
        seq = self._seq
        self._seq = seq + 1
        handle = Event(clock.now + interval, seq, None, label)
        # Every repetition after the first is this one event, re-pushed
        # with the seq a new one would have taken.  It is not the handle:
        # a repetition queued before ``cancel`` still fires as a no-op
        # that ``pending``, ``events_run`` and the clock see (pinned).
        tick = Event(0.0, 0, None, label)

        def fire() -> None:
            if handle.cancelled:
                return
            action()
            if not handle.cancelled:
                tick.time = due = clock.now + interval
                tick.seq = turn = self._seq
                self._seq = turn + 1
                heappush(queue, (due, turn, tick))

        handle.action = tick.action = fire
        heappush(queue, (handle.time, seq, handle))
        return handle

    def step(self) -> bool:
        """Run the next event.  Returns False when the queue is empty."""
        queue = self._queue
        while queue:
            when, _, event = heappop(queue)
            if event.cancelled:
                continue
            if when < self.clock.now:
                booked = self.late.setdefault(event.label, [0, 0.0])
                booked[0] += 1
                booked[1] = max(booked[1], self.clock.now - when)
            self.clock.advance_to(when)
            self.events_run += 1
            event.action()
            return True
        return False

    def run_until_idle(self, max_events: int = 1_000_000) -> int:
        """Drain the queue.  Returns the number of events run."""
        queue = self._queue
        clock = self.clock
        count = 0
        while queue:
            when, _, event = heappop(queue)
            if event.cancelled:
                continue
            # One clock advance covers the whole same-instant batch
            # (advance_to without the call, as in run_until).
            if when > clock.now:
                clock.now = when
            elif when < clock.now:
                booked = self.late.setdefault(event.label, [0, 0.0])
                booked[0] += 1
                booked[1] = max(booked[1], clock.now - when)
            while True:
                self.events_run += 1
                event.action()
                count += 1
                if count > max_events:
                    raise RuntimeError(
                        f"scheduler did not go idle within {max_events} "
                        f"events; possible event loop")
                event = None
                while queue and queue[0][0] == when:
                    _, _, peer = heappop(queue)
                    if not peer.cancelled:
                        event = peer
                        break
                if event is None:
                    break
                if when < clock.now:  # the clock moved inside the batch
                    booked = self.late.setdefault(event.label, [0, 0.0])
                    booked[0] += 1
                    booked[1] = max(booked[1], clock.now - when)
        return count

    def run_until(self, deadline: float, max_events: int = 1_000_000) -> int:
        """Run events with time <= deadline, then set the clock there."""
        queue = self._queue
        clock = self.clock
        count = 0
        while queue:
            when = queue[0][0]
            if when > deadline:
                break
            event = heappop(queue)[2]
            if event.cancelled:
                continue
            if when > clock.now:
                clock.now = when
            elif when < clock.now:
                booked = self.late.setdefault(event.label, [0, 0.0])
                booked[0] += 1
                booked[1] = max(booked[1], clock.now - when)
            self.events_run += 1
            event.action()
            count += 1
            if count > max_events:
                raise RuntimeError("run_until exceeded max_events")
        clock.advance_to(deadline)
        return count
