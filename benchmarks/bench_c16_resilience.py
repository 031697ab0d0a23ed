"""C16 — Invocation resilience: exactly-once retries under chaos.

Claim (section 4.1): transparency mechanisms "cannot guarantee that
things will always work perfectly" — the engineering question is what
the platform guarantees when the network misbehaves.  The resilience
layer answers: retransmissions with exponential backoff are answered
from a server-side reply cache, so a non-idempotent operation executes
exactly once no matter how many reply legs a chaos schedule eats.

Method: a 10%-drop flaky window covers the whole run (scripted as a
FaultSchedule, not an imperative toggle).  The same seeded workload of
non-idempotent increments runs twice:

  * legacy    — a fixed-delay QoS (no backoff growth, no jitter) run
                under the ``replycache`` mutation, whose reply cache
                never hits: at-least-once (a lost reply leg
                re-executes the increment).  Because every blind retry
                risks a duplicate, the retry budget is kept low
                (retries=1) — the realistic configuration for
                non-idempotent ops on such a transport — so losses
                regularly exhaust it and the client resubmits after a
                think-time penalty;
  * resilient — exactly-once retries + jittered backoff + reply cache.
                The cache makes retries safe, so the budget can be
                deep (retries=5) and ops essentially never fail.

Series produced, per mode: duplicate executions (server-side count
minus client-acked ops), goodput (acked ops per virtual second), and
suppressed-duplicate / retry counters from the transparency monitor.
Expected shape: resilient duplicates == 0 while legacy duplicates > 0,
and resilient goodput is higher because backoff+cache recover faster
than resubmit-after-penalty.
"""

import pytest

from repro import FaultSchedule, FlakyWindow, QoS
from repro.check import mutations
from repro.errors import CommunicationError
from repro.mgmt.monitor import TransparencyMonitor

from benchmarks.workloads import (
    Counter,
    as_report,
    two_node_world,
    write_report,
)

OPS = 200
DROP = 0.10
PENALTY_MS = 20.0  # client think time before resubmitting a failed op


#: The legacy arm's schedule: the same 1 ms before every retry.
FIXED = QoS(retries=1, retry_delay_ms=1.0, backoff_multiplier=1.0,
            retry_delay_max_ms=1.0, retry_jitter=0.0)


def _run(resilient):
    if resilient:
        return _workload(QoS(retries=5, retry_delay_ms=1.0))
    # Blind retries duplicate, so the legacy budget is kept low.
    with mutations.applied("replycache"):
        return _workload(FIXED)


def _workload(qos):
    world, servers, clients = two_node_world(seed=16)
    world.apply_chaos(FaultSchedule(
        FlakyWindow(start_ms=0.0, end_ms=1e9, drop=DROP)))
    counter = Counter()
    proxy = world.binder_for(clients).bind(servers.export(counter), qos=qos)
    start = world.now
    acked = 0
    for _ in range(OPS):
        while True:
            try:
                proxy.increment()
            except CommunicationError:
                world.clock.advance(PENALTY_MS)  # resubmit after penalty
            else:
                acked += 1
                break
    elapsed_s = (world.now - start) / 1000.0
    report = TransparencyMonitor(
        world.domain("org")).domain_report()["resilience"]
    return {
        "executed": counter.value,
        "acked": acked,
        "duplicates": counter.value - acked,
        "goodput": acked / elapsed_s,
        "retries": report["retries"],
        "suppressed": report["duplicates_suppressed"],
        "drops": world.faults.drops,
    }


@pytest.mark.parametrize("resilient", [False, True],
                         ids=["legacy", "resilient"])
def test_c16_chaos_workload(benchmark, resilient):
    benchmark.group = "C16 resilience under 10% drop"
    benchmark(lambda: _run(resilient))


def test_c16_report(benchmark):
    as_report(benchmark, _report)


def _report():
    legacy = _run(resilient=False)
    resilient = _run(resilient=True)
    rows = [f"workload: {OPS} non-idempotent increments under a "
            f"{DROP:.0%}-drop flaky window (seed 16)",
            f"{'mode':>10} {'executed':>9} {'acked':>6} {'dupes':>6} "
            f"{'goodput op/s':>13} {'retries':>8} {'suppressed':>11}"]
    for name, row in (("legacy", legacy), ("resilient", resilient)):
        rows.append(f"{name:>10} {row['executed']:>9} {row['acked']:>6} "
                    f"{row['duplicates']:>6} {row['goodput']:>13.1f} "
                    f"{row['retries']:>8} {row['suppressed']:>11}")
    # Exactly-once: the reply cache absorbs every retransmission.
    assert resilient["duplicates"] == 0
    assert resilient["suppressed"] > 0
    # Legacy at-least-once really does re-execute on reply-leg loss.
    assert legacy["duplicates"] > 0
    # And recovering via backoff+cache beats resubmit-after-penalty.
    assert resilient["goodput"] > legacy["goodput"]
    rows.append("")
    rows.append(f"goodput gain: "
                f"{resilient['goodput'] / legacy['goodput']:.2f}x; "
                f"legacy duplicated {legacy['duplicates']} executions, "
                f"resilient suppressed {resilient['suppressed']} "
                f"retransmissions server-side")
    write_report("C16", "invocation resilience: exactly-once retries "
                        "under a scripted 10%-drop chaos window "
                        "(section 4.1)", rows)
