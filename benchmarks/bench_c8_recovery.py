"""C8 — Failure transparency: checkpoint + log recovery (section 5.5).

Claim: "the snapshot must be associated with a log of outstanding
interactions, so that when recovery occurs, the replacement object can
mirror exactly the state of its predecessor."

Series produced, sweeping the checkpoint interval c in {1, 5, 20, 100}:
  * steady-state overhead per write (checkpoints + write-ahead logging),
  * recovery work (log entries replayed) and recovery virtual time after
    a crash at a fixed point in the workload,
  * state fidelity: recovered balance == pre-crash balance, always.
Expected shape: the classic trade-off — small c costs more in steady
state but recovers with less replay; fidelity is exact at every c.
"""

from repro import EnvironmentConstraints, FailureSpec

from benchmarks.workloads import Account, n_node_world

WRITES = 63  # deliberately not a multiple of the checkpoint intervals


def _run(checkpoint_every):
    world, capsules, clients = n_node_world(2)
    domain = world.domain("org")
    ref = capsules[0].export(
        Account(0),
        constraints=EnvironmentConstraints(
            failure=FailureSpec(checkpoint_every=checkpoint_every)))
    proxy = world.binder_for(clients).bind(ref)
    start = world.now
    for _ in range(WRITES):
        proxy.deposit(1)
    steady_ms = (world.now - start) / WRITES
    world.crash_node("node-0")
    recover_start = world.now
    domain.recovery.recover(ref.interface_id, capsules[1])
    recovery_ms = world.now - recover_start
    replayed = domain.recovery.replayed_entries
    recovered_balance = proxy.balance_of()
    return steady_ms, recovery_ms, replayed, recovered_balance


def claim():
    series = {}
    for interval in (1, 5, 20, 100):
        steady, recovery, replayed, balance = _run(interval)
        series[interval] = {"steady_ms_per_write": steady,
                            "recovery_ms": recovery, "replayed": replayed}
        assert balance == WRITES  # "mirror exactly the state of its predecessor"
    # The trade-off shape: frequent checkpoints cost more in steady
    # state; rare checkpoints mean more replay at recovery.
    assert series[1]["steady_ms_per_write"] > \
        series[100]["steady_ms_per_write"]
    assert series[100]["replayed"] > series[1]["replayed"]
    return {"by_checkpoint_interval": series}, {}
