"""Tests for the virtual clock and discrete-event scheduler."""

import pytest

from repro.sim.clock import VirtualClock
from repro.sim.scheduler import Scheduler, late_by_prefix


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_custom_start(self):
        assert VirtualClock(5.0).now == 5.0

    def test_advance(self):
        clock = VirtualClock()
        assert clock.advance(2.5) == 2.5
        assert clock.advance(1.0) == 3.5

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)

    def test_advance_to_moves_forward_only(self):
        clock = VirtualClock()
        clock.advance_to(10.0)
        assert clock.now == 10.0
        clock.advance_to(5.0)  # no-op
        assert clock.now == 10.0


class TestScheduler:
    def test_events_run_in_time_order(self):
        sched = Scheduler()
        order = []
        sched.at(5.0, lambda: order.append("b"))
        sched.at(1.0, lambda: order.append("a"))
        sched.at(9.0, lambda: order.append("c"))
        sched.run_until_idle()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_schedule_order(self):
        sched = Scheduler()
        order = []
        sched.at(3.0, lambda: order.append(1))
        sched.at(3.0, lambda: order.append(2))
        sched.at(3.0, lambda: order.append(3))
        sched.run_until_idle()
        assert order == [1, 2, 3]

    def test_clock_advances_to_event_time(self):
        sched = Scheduler()
        seen = []
        sched.at(7.0, lambda: seen.append(sched.now))
        sched.run_until_idle()
        assert seen == [7.0]
        assert sched.now == 7.0

    def test_after_is_relative(self):
        sched = Scheduler()
        sched.clock.advance(10.0)
        seen = []
        sched.after(5.0, lambda: seen.append(sched.now))
        sched.run_until_idle()
        assert seen == [15.0]

    def test_past_events_run_now(self):
        sched = Scheduler()
        sched.clock.advance(10.0)
        seen = []
        sched.at(3.0, lambda: seen.append(sched.now))
        sched.run_until_idle()
        assert seen == [10.0]

    def test_cancel(self):
        sched = Scheduler()
        fired = []
        event = sched.at(1.0, lambda: fired.append(True))
        event.cancel()
        sched.run_until_idle()
        assert fired == []

    def test_events_can_schedule_events(self):
        sched = Scheduler()
        seen = []

        def first():
            seen.append("first")
            sched.after(1.0, lambda: seen.append("second"))

        sched.at(1.0, first)
        sched.run_until_idle()
        assert seen == ["first", "second"]

    def test_every_repeats_until_cancelled(self):
        sched = Scheduler()
        ticks = []
        handle = sched.every(10.0, lambda: ticks.append(sched.now))
        sched.run_until(35.0)
        handle.cancel()
        sched.run_until(100.0)
        assert ticks == [10.0, 20.0, 30.0]

    def test_every_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            Scheduler().every(0.0, lambda: None)

    def test_run_until_sets_clock_to_deadline(self):
        sched = Scheduler()
        sched.run_until(50.0)
        assert sched.now == 50.0

    def test_run_until_leaves_later_events_queued(self):
        sched = Scheduler()
        fired = []
        sched.at(100.0, lambda: fired.append(True))
        sched.run_until(50.0)
        assert fired == []
        assert sched.pending() == 1
        sched.run_until_idle()
        assert fired == [True]

    def test_run_until_idle_detects_runaway_loops(self):
        sched = Scheduler()

        def forever():
            sched.after(1.0, forever)

        sched.after(1.0, forever)
        with pytest.raises(RuntimeError, match="did not go idle"):
            sched.run_until_idle(max_events=100)

    def test_step_returns_false_when_empty(self):
        assert Scheduler().step() is False

    def test_pending_excludes_cancelled(self):
        sched = Scheduler()
        event = sched.at(1.0, lambda: None)
        sched.at(2.0, lambda: None)
        event.cancel()
        assert sched.pending() == 1


class TestEventWheelSemantics:
    """Pins every observable behaviour the event-wheel rewrite must
    reproduce: same-instant FIFO, cancellation windows, batch firing
    order, and an exact schedule trace."""

    def test_same_instant_fifo_is_stable_at_scale(self):
        sched = Scheduler()
        order = []
        for i in range(100):
            sched.at(4.0, lambda i=i: order.append(i))
        sched.run_until_idle()
        assert order == list(range(100))

    def test_same_instant_events_scheduled_during_batch_run_in_batch(self):
        sched = Scheduler()
        order = []

        def first():
            order.append("first")
            # Scheduled *at the firing instant*: joins the tail of the
            # same-instant batch, after already-queued peers.
            sched.at(5.0, lambda: order.append("late-join"))

        sched.at(5.0, first)
        sched.at(5.0, lambda: order.append("second"))
        sched.run_until_idle()
        assert order == ["first", "second", "late-join"]

    def test_cancel_within_same_instant_batch_prevents_firing(self):
        sched = Scheduler()
        order = []
        victim = sched.at(2.0, lambda: order.append("victim"))
        sched.at(2.0, lambda: order.append("survivor"))

        def assassin():
            order.append("assassin")
            victim.cancel()

        # Scheduled last but at an earlier time: runs first and cancels
        # a same-instant peer that is already queued behind it.
        sched.at(1.0, assassin)
        sched.run_until_idle()
        assert order == ["assassin", "survivor"]

    def test_cancel_then_fire_instant_is_safe(self):
        sched = Scheduler()
        order = []
        doomed = sched.at(3.0, lambda: order.append("doomed"))

        def killer():
            victim_time_reached = sched.now == 3.0
            order.append(("killer", victim_time_reached))
            doomed.cancel()

        sched.at(3.0, killer)  # same instant, earlier seq? No: later seq.
        # ``doomed`` was scheduled first, so it fires first; cancelling
        # after the fact is a no-op, not an error.
        sched.run_until_idle()
        assert order == ["doomed", ("killer", True)]
        doomed.cancel()  # idempotent after firing
        assert sched.pending() == 0

    def test_every_cancelled_from_inside_action_stops_repeating(self):
        sched = Scheduler()
        ticks = []
        handle = sched.every(5.0, lambda: (
            ticks.append(sched.now),
            handle.cancel() if len(ticks) >= 2 else None))
        sched.run_until(100.0)
        assert ticks == [5.0, 10.0]

    def test_events_run_counts_fired_not_cancelled(self):
        sched = Scheduler()
        sched.at(1.0, lambda: None)
        sched.at(2.0, lambda: None).cancel()
        sched.at(3.0, lambda: None)
        sched.run_until_idle()
        assert sched.events_run == 2

    @pytest.mark.parametrize("drain", [
        lambda sched: sched.run_until_idle(),
        lambda sched: sched.run_until(100.0),
        lambda sched: sched.step(),
    ], ids=["run_until_idle", "run_until", "step"])
    def test_a_synchronous_advance_past_a_due_event_books_it_late(
            self, drain):
        sched = Scheduler()
        sched.at(10.0, lambda: None, label="hb:n1/srv")
        sched.at(40.0, lambda: None, label="hb:n2/srv")
        sched.clock.advance(25.0)  # a synchronous leg holds the clock
        drain(sched)
        assert sched.late == {"hb:n1/srv": [1, 15.0]}
        assert late_by_prefix([sched.late]) == {"hb": [1, 15.0]}

    def test_a_clock_moved_inside_a_same_instant_batch_books_its_peers(
            self):
        sched = Scheduler()
        sched.at(10.0, lambda: sched.clock.advance(4.0), label="rpc")
        sched.at(10.0, lambda: None, label="chaos@10.0")
        sched.at(10.0, lambda: None, label="chaos@10.0")
        sched.run_until_idle()
        assert late_by_prefix([sched.late]) == {"chaos": [2, 4.0]}

    def test_on_time_firings_book_nothing(self):
        sched = Scheduler()
        sched.every(5.0, lambda: None, label="hb:x")
        sched.at(12.0, lambda: None)
        sched.run_until(50.0)
        assert sched.events_run == 11
        assert sched.late == {}

    def test_run_until_max_events_guard(self):
        sched = Scheduler()

        def forever():
            sched.after(1.0, forever)

        sched.after(1.0, forever)
        with pytest.raises(RuntimeError, match="max_events"):
            sched.run_until(1000.0, max_events=50)

    def test_schedule_trace_regression(self):
        """An exact (time, label) firing trace for a mixed scenario —
        at/after/every, cancellations, nested scheduling, run_until
        then run_until_idle.  The rewrite must replay this verbatim."""
        sched = Scheduler()
        trace = []

        def log(label):
            trace.append((sched.now, label))

        sched.at(10.0, lambda: log("a"))
        sched.at(10.0, lambda: log("b"))
        beat = sched.every(7.0, lambda: log("beat"))
        sched.after(3.0, lambda: log("c"))
        doomed = sched.at(8.0, lambda: log("never"))
        doomed.cancel()

        def nest():
            log("nest")
            sched.after(0.0, lambda: log("nest-child"))
            sched.at(sched.now, lambda: log("nest-sibling"))

        sched.at(14.0, nest)
        sched.run_until(15.0)
        log("checkpoint")
        sched.after(1.0, lambda: (log("tail"), beat.cancel()))
        sched.run_until_idle()
        assert trace == [
            (3.0, "c"),
            (7.0, "beat"),
            (10.0, "a"),
            (10.0, "b"),
            # ``nest`` precedes ``beat``: it was scheduled at setup,
            # while beat's 14.0 repetition was only enqueued when the
            # 7.0 firing re-armed it, so nest holds the earlier seq.
            (14.0, "nest"),
            (14.0, "beat"),
            (14.0, "nest-child"),
            (14.0, "nest-sibling"),
            (15.0, "checkpoint"),
            (16.0, "tail"),
        ]
        # The cancelled beat's already-queued 21.0 repetition still
        # drains as a no-op, advancing the clock with no trace entry.
        assert sched.now == 21.0

    def test_pending_counts_queued_repetition_of_cancelled_every(self):
        # Quirk pin: cancelling an ``every`` handle after its first
        # firing leaves the already-queued repetition event in the
        # wheel (it no-ops when due).  ``pending`` counts it, because
        # the repetition Event object itself is not cancelled.
        sched = Scheduler()
        handle = sched.every(10.0, lambda: None)
        sched.run_until(10.0)
        handle.cancel()
        assert sched.pending() == 1
        sched.run_until_idle()
        assert sched.pending() == 0


# ---------------------------------------------------------------------------
# Differential test: generated programs against a sorted-list model
# ---------------------------------------------------------------------------

class _ModelEvent:
    def __init__(self, action):
        self.action, self.cancelled = action, False

    def cancel(self):
        self.cancelled = True


class _ModelScheduler:
    """The reference: a list kept sorted by (time, seq), a fresh event
    per repetition, and one place where an event fires."""

    def __init__(self):
        self.now, self.queue, self.seq, self.events_run = 0.0, [], 0, 0

    def at(self, when, action, label=""):
        event = _ModelEvent(action)
        self.queue.append((max(when, self.now), self.seq, event))
        self.queue.sort(key=lambda entry: entry[:2])
        self.seq += 1
        return event

    def after(self, delay, action, label=""):
        return self.at(self.now + max(0.0, delay), action)

    def every(self, interval, action, label=""):
        def fire():
            if not handle.cancelled:
                action()
                if not handle.cancelled:
                    self.after(interval, fire)
        handle = self.at(self.now + interval, fire)
        return handle

    def pending(self):
        return sum(not event.cancelled for _, _, event in self.queue)

    def step(self, deadline=float("inf")):
        while self.queue and self.queue[0][0] <= deadline:
            when, _, event = self.queue.pop(0)
            if not event.cancelled:
                self.now = max(self.now, when)
                self.events_run += 1
                event.action()
                return True
        return False

    def run_until_idle(self):
        return sum(1 for _ in iter(self.step, False))

    def run_until(self, deadline):
        count = sum(1 for _ in iter(lambda: self.step(deadline), False))
        self.now = max(self.now, deadline)
        return count


#: Offsets and intervals sit on a coarse grid so that ties, same-instant
#: scheduling and times already past are the common case, not the rare.
_OFFSETS = (-3.0, 0.0, 0.0, 1.0, 2.0, 2.5, 5.0, 7.5)
_INTERVALS = (0.5, 1.0, 2.5, 4.0)


def _generate(rng, depth=0):
    """A scheduler program as data: a list of steps.  A scheduling step
    is ``(kind, time, lives, body)`` — *body* is the program its action
    runs each time it fires, after logging itself; an ``every`` cancels
    itself from inside its *lives*-th firing unless something else
    cancels it first, so every program drains."""
    steps = []
    for _ in range(rng.randrange(1, 9) if depth == 0 else rng.randrange(3)):
        roll = rng.random()
        if roll < 0.55 and depth < 3:
            kind = rng.choice(("at", "after", "every"))
            time = rng.choice(_INTERVALS if kind == "every" else _OFFSETS)
            steps.append((kind, time, rng.randrange(1, 5),
                          _generate(rng, depth + 1)))
        elif roll < 0.75:
            steps.append(("cancel", rng.randrange(64)))
        elif roll < 0.9:
            steps.append(("run_until", rng.choice(_OFFSETS)))
        elif depth == 0:
            steps.append((rng.choice(("step", "run_until_idle")),))
    if depth == 0:
        steps += [("run_until", 5.0), ("step",), ("run_until_idle",)]
    return steps


def _play(program, sched):
    """Run *program* against *sched*; returns everything observable, in
    the order it was observed."""
    seen, handles = [], []

    def schedule(kind, time, lives, body):
        label = f"{kind}#{len(handles)}"
        fired = []

        def action():
            seen.append((sched.now, label))
            fired.append(None)
            if kind == "every" and len(fired) == lives:
                handle.cancel()
            perform(body)

        if kind == "at":
            handle = sched.at(sched.now + time, action, label)
        else:
            handle = getattr(sched, kind)(time, action, label)
        handles.append(handle)

    def perform(steps):
        for op, *args in steps:
            if op == "cancel":
                if handles:
                    handles[args[0] % len(handles)].cancel()
            elif op == "run_until":     # nested, when *steps* is a body
                seen.append((op, sched.run_until(sched.now + args[0]),
                             sched.pending()))
            elif op in ("step", "run_until_idle"):
                seen.append((op, getattr(sched, op)(), sched.pending()))
            else:
                schedule(op, *args)

    perform(program)
    return seen, sched.now, sched.events_run, sched.pending()


class TestSchedulerAgainstModel:
    def test_generated_programs_agree_with_the_model(self):
        import random
        ops = set()
        for seed in range(400):
            program = _generate(random.Random(seed))
            real = _play(program, Scheduler())
            assert real == _play(program, _ModelScheduler()), seed
            ops.update(entry[0] for entry in real[0]
                       if isinstance(entry[0], str))
        assert ops == {"run_until", "step", "run_until_idle"}

    def test_cancelled_timers_queued_repetition_fires_as_a_noop(self):
        # The quirk a re-arm by re-pushing the handle itself would lose:
        # the repetition queued before ``cancel`` is not the handle, so
        # it still fires — no action, but counted and moving the clock.
        def program(sched):
            ticks = []
            handle = sched.every(10.0, lambda: ticks.append(sched.now))
            first = sched.run_until(10.0)
            handle.cancel()
            queued = sched.pending()
            return (ticks, first, queued, sched.run_until_idle(),
                    sched.now, sched.events_run, sched.pending())

        assert program(Scheduler()) == program(_ModelScheduler()) == (
            [10.0], 1, 1, 1, 20.0, 2, 0)
