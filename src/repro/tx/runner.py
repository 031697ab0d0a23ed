"""Transaction scripts run as overlapped activities.

The simulator is single-threaded, so "truly overlapped" transactions
(section 4.1) are reproduced by running *scripts* — generator functions
that yield one operation thunk at a time — each as one activity on the
scheduler (:mod:`repro.sim.activity`).  Between steps a script yields,
so the other scripts, and every other scheduled event, take their turn.
Lock conflicts surface as :class:`~repro.errors.LockBusyError`, which a
script treats as a blocking wait: it sleeps and retries the step, exactly
like a blocked thread being rescheduled.  Deadlock victims are aborted
and restarted from the top (the classic abort-and-retry discipline).

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
from repro.sim.activity import ActivityRuntime, Sleep
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


class TxRunner:
    """Runs scripts as activities, in a (optionally randomised) order."""

    #: Virtual ms a blocked step, or an aborted script, sleeps before it
    #: tries again.
    busy_backoff_ms = 0.5

    def __init__(self, manager: TransactionManager, scheduler,
                 rng: Optional[DeterministicRandom] = None) -> None:
        self.manager = manager
        self.scheduler = scheduler
        self.rng = rng
        self.restarts = 0

    def run(self, bodies, names: Optional[List[str]] = None
            ) -> List[TxScript]:
        """Run all scripts to completion; returns their records.

        A lock held forever (by a transaction outside the runner) keeps
        its waiters sleeping until the scheduler's event bound trips.
        """
        scripts = [
            TxScript(names[i] if names else f"script-{i}", body)
            for i, body in enumerate(bodies)
        ]
        order = list(scripts)
        if self.rng is not None:
            self.rng.shuffle(order)
        runtime = ActivityRuntime(self.scheduler)
        for script in order:
            runtime.spawn(self._attempts(script), script.name)
        runtime.run_all()
        return scripts

    def _turn(self) -> Sleep:
        """The pause between two steps: a random one when randomised."""
        if self.rng is None:
            return Sleep()
        return Sleep(self.rng.random() * self.busy_backoff_ms)

    def _attempts(self, script: TxScript):
        """One script as one activity: attempts until it commits or runs
        out.  The ambient transaction is pushed around each thunk, never
        held across a ``yield``."""
        manager = self.manager
        while script.attempts < script.max_attempts:
            script.attempts += 1
            script.results.clear()
            tx = manager.begin()
            try:
                for thunk in script.body(tx):
                    while True:
                        manager.push_current(tx)
                        try:
                            script.results.append(thunk())
                            break
                        except LockBusyError:
                            script.busy_waits += 1
                        finally:
                            manager.pop_current(tx)
                        yield Sleep(self.busy_backoff_ms)
                    yield self._turn()
                tx.commit()
                script.committed = True
                return
            except (DeadlockError, TransactionAborted) as exc:
                if isinstance(exc, DeadlockError):
                    script.deadlocks += 1
                if tx.state == TxState.ACTIVE:
                    tx.abort(str(exc))
            self.restarts += 1
            yield Sleep(self.busy_backoff_ms)
        script.aborted_for_good = True
