"""Interleaved execution of transaction scripts.

The simulator is single-threaded, so "truly overlapped" transactions
(section 4.1) are reproduced by running *scripts* — generator functions
that yield one operation thunk at a time — under a runner that interleaves
their steps deterministically.  Lock conflicts surface as
:class:`~repro.errors.LockBusyError`, which the runner treats as a blocking
wait: the step is retried after other scripts have had a turn, exactly like
a blocked thread being rescheduled.  Deadlock victims are aborted and
restarted from the top (the classic abort-and-retry discipline).

A script::

    def transfer(tx):
        yield lambda: source.withdraw(10)
        yield lambda: target.deposit(10)

Scripts observe serializable behaviour: the property-based tests check that
the final state equals *some* serial order of the committed scripts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from repro.errors import DeadlockError, LockBusyError, TransactionAborted
from repro.sim.rand import DeterministicRandom
from repro.tx.transaction import TransactionManager, TxState


@dataclass
class TxScript:
    """One transaction program plus its bookkeeping."""

    name: str
    body: Callable  # generator function taking the transaction
    max_attempts: int = 25
    # Filled in by the runner:
    attempts: int = 0
    committed: bool = False
    aborted_for_good: bool = False
    results: List[Any] = field(default_factory=list)
    deadlocks: int = 0
    busy_waits: int = 0


class _Run:
    """Mutable per-attempt state of a script."""

    def __init__(self, script: TxScript, manager: TransactionManager) -> None:
        self.script = script
        self.manager = manager
        self.tx = manager.begin()
        self.gen = script.body(self.tx)
        self.pending: Optional[Callable] = None
        self.done = False
        script.attempts += 1
        script.results.clear()


class TxRunner:
    """Round-robin (optionally randomised) interleaver of scripts."""

    #: Virtual ms a busy step waits before its script is stepped again.
    busy_backoff_ms = 0.5
    #: Consecutive all-blocked rounds tolerated before declaring a
    #: livelock.  Locks may be held by transactions *outside* the
    #: runner, so a blocked round is not immediately fatal; cycles
    #: among the runner's own scripts are caught by the deadlock
    #: detector long before this bound.
    max_stall_rounds = 1000

    def __init__(self, manager: TransactionManager,
                 scheduler=None,
                 rng: Optional[DeterministicRandom] = None) -> None:
        self.manager = manager
        self.scheduler = scheduler
        self.rng = rng
        self.restarts = 0

    def _backoff(self) -> None:
        if self.scheduler is not None:
            self.scheduler.clock.advance(self.busy_backoff_ms)

    def run(self, bodies, names: Optional[List[str]] = None
            ) -> List[TxScript]:
        """Run all scripts to completion; returns their records."""
        scripts = [
            TxScript(names[i] if names else f"script-{i}", body)
            for i, body in enumerate(bodies)
        ]
        runs = [_Run(s, self.manager) for s in scripts]
        active = list(runs)
        stalled_rounds = 0

        while active:
            progressed = False
            order = list(active)
            if self.rng is not None:
                self.rng.shuffle(order)
            for run in order:
                if run.done:
                    continue
                outcome = self._step(run)
                if outcome == "progress" or outcome == "finished":
                    progressed = True
                if outcome == "restart":
                    progressed = True
                    self.restarts += 1
                    if run.script.attempts >= run.script.max_attempts:
                        run.script.aborted_for_good = True
                        run.done = True
                    else:
                        fresh = _Run(run.script, self.manager)
                        active[active.index(run)] = fresh
            active = [r for r in active if not r.done]
            if active and not progressed:
                # Every live script is blocked.  A lock may be held by a
                # transaction outside this runner, so wait it out — but
                # only for a bounded number of rounds.
                stalled_rounds += 1
                if stalled_rounds > self.max_stall_rounds:
                    blocked = ", ".join(r.script.name for r in active)
                    raise RuntimeError(
                        f"interleaver livelock: all scripts blocked for "
                        f"{stalled_rounds} rounds ({blocked})")
            else:
                stalled_rounds = 0
        return scripts

    def _step(self, run: _Run) -> str:
        thunk = run.pending
        if thunk is None:
            try:
                thunk = next(run.gen)
            except StopIteration:
                return self._finish(run)
            except (DeadlockError, TransactionAborted) as exc:
                return self._handle_abort(run, exc)
        self.manager.push_current(run.tx)
        try:
            result = thunk()
        except LockBusyError:
            run.pending = thunk
            run.script.busy_waits += 1
            self._backoff()
            return "blocked"
        except DeadlockError as exc:
            return self._handle_abort(run, exc)
        except TransactionAborted as exc:
            return self._handle_abort(run, exc)
        finally:
            self.manager.pop_current(run.tx)
        run.pending = None
        run.script.results.append(result)
        return "progress"

    def _finish(self, run: _Run) -> str:
        try:
            run.tx.commit()
        except TransactionAborted as exc:
            return self._handle_abort(run, exc)
        run.script.committed = True
        run.done = True
        return "finished"

    def _handle_abort(self, run: _Run, exc: Exception) -> str:
        if isinstance(exc, DeadlockError):
            run.script.deadlocks += 1
        if run.tx.state == TxState.ACTIVE:
            run.tx.abort(str(exc))
        run.pending = None
        self._backoff()
        return "restart"
