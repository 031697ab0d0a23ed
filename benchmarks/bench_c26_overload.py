"""C26 — Overload robustness: deadlines, budgets and brownout vs collapse.

Claim (sections 4.1/5.1): transparency "cannot guarantee that things
will always work perfectly" — and the QoS annex's deadline/priority
constraints are the declared remedy.  The failure mode that motivates
them is not a crash but *metastable overload*: a transient compute
stall (GC pause, noisy neighbour) slows a healthy server, a backlog of
requests accumulates, and once the stall heals the system spends its
capacity completing work whose callers stopped waiting long ago.
Throughput looks fine; *useful* throughput — replies delivered within
the caller's patience — stays collapsed long after the fault is gone.

Method: an interactive stream (1 op / 8ms, 250ms of caller patience)
shares one admission-controlled server with a low-priority scan stream
(bursts of 6 ops / 300ms); a 2-second x400 compute stall hits mid-run.
Two platform configurations over the same seeded workload:

* ``baseline`` — the pre-overload platform: no deadline propagation, no
  retry budgets, classless admission.  The application cannot express
  "this reply is only useful for 250ms", so every backlogged request is
  executed in arrival order.
* ``protected`` — the repro.overload stack: end-to-end deadlines
  stamped from each request's arrival instant, enforced per-path retry
  budgets, class-aware admission (interactive=3, scan=0) with brownout.
  The application drops work whose deadline has already passed instead
  of issuing it, and the platform enforces the same deadline at every
  later hop.

Series: on-time goodput — interactive completions that made their
250ms deadline, per 500ms window of virtual time.  Asserted, not
eyeballed: the baseline's on-time goodput stays collapsed for >= 5
virtual seconds after the stall has healed, while the protected stack
is back at >= 90% of its pre-stall rate within 1.5 seconds — and the
deadline gate's execution log proves no invocation started executing
past its propagated deadline.
"""

import math

from repro import QoS
from repro.errors import (
    DeadlineExceededError,
    InvocationExpiredError,
    RetryBudgetExhaustedError,
    ServerBusyError,
)
from repro.overload import BrownoutController
from repro.perf import AdmissionController

from benchmarks.workloads import Counter, two_node_world

#: Offered load and capacity: 125/s interactive + 20/s scan against a
#: 150/s admission rate — headroom when healthy, none to spare.
INTERACTIVE_INTERVAL_MS = 8.0
SCAN_INTERVAL_MS = 300.0
SCAN_BURST = 6
RATE_PER_S = 150.0
BURST = 4
QUEUE_BOUND = 8

STALL_START_MS = 2000.0
STALL_END_MS = 4000.0
STALL_FACTOR = 400.0
HORIZON_MS = 20000.0

DEADLINE_MS = 250.0       # interactive caller patience
SCAN_DEADLINE_MS = 1500.0  # scans tolerate lateness, not staleness
APP_REISSUES = 3
WINDOW_MS = 500.0


def _issue(proxy, qos, reissues):
    """The application retry policy — identical in both modes: re-issue
    retryable failures a bounded number of times, drop the rest."""
    for attempt in range(1 + reissues):
        try:
            proxy.increment(_qos=qos)
            return True
        except (ServerBusyError, RetryBudgetExhaustedError):
            if attempt == reissues:
                return False
        except (InvocationExpiredError, DeadlineExceededError):
            # The deadline is dead: nobody is waiting, so re-issuing
            # would be pure amplification.  (Only the protected stack
            # ever surfaces these.)
            return False
    return False


def _run_overload(protected):
    world, servers, clients = two_node_world(seed=26)
    counter = Counter()
    ref = servers.export(counter)
    server = world.nucleus("server-node")
    client_nucleus = world.nucleus("client-node")
    if protected:
        server.admission = AdmissionController(
            world.clock, rate_per_s=RATE_PER_S, burst=BURST,
            max_queue=QUEUE_BOUND,
            brownout=BrownoutController(world.clock,
                                        target_p99_ms=30.0, window=16),
            classes=True)
        server.deadline_gate.record_executions = True
        client_nucleus.deadline_propagation = True
        client_nucleus.retry_budgets.enabled = True
    else:
        server.admission = AdmissionController(
            world.clock, rate_per_s=RATE_PER_S, burst=BURST,
            max_queue=QUEUE_BOUND)
    proxy = world.binder_for(clients).bind(ref)

    # (completion time, lateness vs the arrival's deadline) per success.
    interactive = []
    expired_unissued = 0    # protected app skips already-dead arrivals
    dropped = 0
    scans_done = scans_dropped = 0
    stalled = False
    next_interactive = 0.0
    next_scan = 0.0
    scan_backlog = 0
    while next_interactive < HORIZON_MS:
        due = min(next_interactive, next_scan)
        if world.now < due:
            world.clock.advance(due - world.now)
        if not stalled and world.now >= STALL_START_MS:
            world.faults.stall_node("server-node", STALL_FACTOR)
            stalled = True
        if stalled and world.now >= STALL_END_MS:
            world.faults.stall_node("server-node", 1.0)
            stalled = False
        if next_scan <= next_interactive:
            arrival, next_scan = next_scan, next_scan + SCAN_INTERVAL_MS
            scan_backlog += SCAN_BURST
            while scan_backlog:
                scan_backlog -= 1
                if protected:
                    remaining = arrival + SCAN_DEADLINE_MS - world.now
                    if remaining <= 0:
                        scans_dropped += 1
                        continue
                    qos = QoS(priority=0, deadline_ms=remaining,
                              retries=3, retry_delay_ms=2.0)
                else:
                    qos = QoS(retries=3, retry_delay_ms=2.0)
                if _issue(proxy, qos, APP_REISSUES):
                    scans_done += 1
                else:
                    scans_dropped += 1
            continue
        arrival = next_interactive
        next_interactive += INTERACTIVE_INTERVAL_MS
        if protected:
            remaining = arrival + DEADLINE_MS - world.now
            if remaining <= 0:
                # Deadline propagation starts at the edge: the app can
                # see the budget is already spent and never issues.
                expired_unissued += 1
                continue
            qos = QoS(priority=3, deadline_ms=remaining, retries=3)
        else:
            qos = QoS(retries=3)
        if _issue(proxy, qos, APP_REISSUES):
            interactive.append(
                (world.now, world.now - (arrival + DEADLINE_MS)))
        else:
            dropped += 1
    if stalled:
        world.faults.stall_node("server-node", 1.0)

    # The shed contract, end to end: every success executed exactly
    # once and nothing shed, expired or dropped ever executed.
    assert counter.value == len(interactive) + scans_done

    windows = int(HORIZON_MS / WINDOW_MS)
    goodput = [0] * windows
    for completed_at, lateness in interactive:
        if lateness <= 1e-9:
            index = min(windows - 1, int(completed_at / WINDOW_MS))
            goodput[index] += 1
    pre_stall = [g for i, g in enumerate(goodput)
                 if (i + 1) * WINDOW_MS <= STALL_START_MS]
    pre_rate = sum(pre_stall) / len(pre_stall)

    recovery_ms = math.inf
    for index in range(int(STALL_END_MS / WINDOW_MS), windows):
        if goodput[index] >= 0.9 * pre_rate:
            recovery_ms = index * WINDOW_MS - STALL_END_MS
            break

    late = []
    if protected:
        for entry in server.deadline_gate.execution_log:
            if entry["deadline"] is not None and \
                    entry["executed_at"] > entry["deadline"] + 1e-9:
                late.append(entry)
    return {
        "goodput": goodput,
        "pre_rate": pre_rate,
        "recovery_ms": recovery_ms,
        "completed": len(interactive),
        "on_time": sum(goodput),
        "expired_unissued": expired_unissued,
        "dropped": dropped,
        "scans_done": scans_done,
        "scans_dropped": scans_dropped,
        "executed": counter.value,
        "shed": server.admission.shed,
        "gate": server.deadline_gate.stats(),
        "budgets": client_nucleus.retry_budgets.totals(),
        "late_executions": late,
    }


def claim():
    baseline = _run_overload(protected=False)
    protected = _run_overload(protected=True)
    # The baseline drains its stale backlog in arrival order: on-time
    # goodput stays collapsed >= 5s after the 2-second stall has healed.
    assert baseline["recovery_ms"] >= 5000.0
    # The protected stack sheds the dead backlog and is back at >= 90%
    # of pre-stall on-time goodput within 1.5s of the heal.
    assert protected["recovery_ms"] <= 1500.0
    # And protection is shedding, not magic: dead work was visibly
    # dropped rather than executed late.
    assert protected["expired_unissued"] + protected["dropped"] > 0
    assert protected["late_executions"] == []
    for row in (baseline, protected):
        if row["recovery_ms"] == math.inf:
            row["recovery_ms"] = None  # never within the horizon
    return {"baseline": baseline, "protected": protected}, {}
