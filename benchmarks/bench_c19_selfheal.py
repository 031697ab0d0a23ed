"""C19 — Self-healing supervision: unavailability and MTTR.

Claim (section 5): failure transparency is an *engineering* problem —
masking a fault is not enough, the platform must also repair the
redundancy the fault consumed, or the next fault finds none left.
The ``repro.heal`` supervisor closes that loop from observed behaviour
alone: phi-accrual detection over real heartbeats, replica replacement
via placement, revive-with-state-transfer, and checkpointed singleton
recovery.

Method: one seeded scenario, run twice.  Four server nodes host a
3-replica KvStore group (s1-s3, quorum 2, s4 spare) and a checkpointed
singleton counter on s2.  A scripted :class:`FaultSchedule` then kills
one node at a time — s2 at 300ms, s3 at 1500ms, s1 at 2700ms, each for
600ms — so redundancy is consumed *sequentially*.  A client probes the
group and the counter every 25ms of virtual time and records which
probes fail:

  * baseline   — no supervisor.  Clients still mask what they can
                 (sequencer failover), but nobody repairs: after the
                 second crash the group is below quorum forever, after
                 the third it is fully unavailable, and the counter
                 dies with s2.
  * supervised — the domain supervisor detects each silent node from
                 heartbeats, replaces s2's replica on the spare s4,
                 revives voted-out members as their nodes return, and
                 re-instates the counter from its checkpoint.

Series produced, per mode and per service: failed probes, downtime
(failed probes x probe period) and mean time to repair (mean length of
a failed-probe episode; an unhealed episode counts until the horizon).
Expected shape: supervised downtime and MTTR are strictly lower for
both services, and the supervised group ends the run at full
replication factor.
"""

from repro import ReplicationSpec, World
from repro.comp.constraints import EnvironmentConstraints, FailureSpec
from repro.comp.invocation import QoS
from repro.errors import OdpError
from repro.net.fault import CrashWindow, FaultSchedule

from benchmarks.workloads import Counter, KvStore

PROBE_MS = 25.0
PROBES = 160                 # 4000ms of virtual time
CRASHES = ((("s2"), 300.0, 900.0),
           (("s3"), 1500.0, 2100.0),
           (("s1"), 2700.0, 3300.0))


def _episodes(failures):
    """Consecutive failed-probe runs -> episode lengths in ms."""
    episodes, run = [], 0
    for failed in failures:
        if failed:
            run += 1
        elif run:
            episodes.append(run * PROBE_MS)
            run = 0
    if run:
        episodes.append(run * PROBE_MS)  # unhealed at the horizon
    return episodes


def _run(supervised):
    world = World(seed=19)
    for name in ("cli", "s1", "s2", "s3", "s4"):
        world.node("org", name)
    domain = world.domain("org")
    servers = {n: world.capsule(n, "srv")
               for n in ("s1", "s2", "s3", "s4")}
    clients = world.capsule("cli", "clients")
    binder = world.binder_for(clients)

    group, gref = domain.groups.create(
        KvStore, [servers[n] for n in ("s1", "s2", "s3")],
        ReplicationSpec(replicas=3, policy="active", reply_quorum=2),
        group_id="c19.kv")
    kv = binder.bind(gref, qos=QoS(deadline_ms=120.0, retries=2))
    counter_ref = servers["s2"].export(
        Counter(),
        constraints=EnvironmentConstraints(
            failure=FailureSpec(checkpoint_every=1)),
        interface_id="c19.ctr")
    counter = binder.bind(counter_ref,
                          qos=QoS(deadline_ms=120.0, retries=2))
    counter.increment()  # seed a checkpoint before any chaos

    world.apply_chaos(FaultSchedule(
        *[CrashWindow(node, start, end)
          for node, start, end in CRASHES]))
    supervisor = None
    if supervised:
        supervisor = domain.supervisor
        supervisor.start()

    kv_failed, ctr_failed = [], []
    for tick in range(PROBES):
        world.scheduler.run_until(world.now + PROBE_MS)
        world.faults.pump()
        try:
            kv.put("probe", str(tick))
            kv_failed.append(False)
        except OdpError:
            kv_failed.append(True)
        try:
            counter.increment()
            ctr_failed.append(False)
        except OdpError:
            ctr_failed.append(True)

    heal = supervisor.report() if supervised else None
    if supervised:
        supervisor.stop()
    kv_eps, ctr_eps = _episodes(kv_failed), _episodes(ctr_failed)
    return {
        "kv_failed": sum(kv_failed),
        "kv_downtime_ms": sum(kv_failed) * PROBE_MS,
        "kv_mttr_ms": sum(kv_eps) / len(kv_eps) if kv_eps else 0.0,
        "ctr_failed": sum(ctr_failed),
        "ctr_downtime_ms": sum(ctr_failed) * PROBE_MS,
        "ctr_mttr_ms": sum(ctr_eps) / len(ctr_eps) if ctr_eps else 0.0,
        "final_live": len(group.view.live_members()),
        "heal": heal,
    }


def claim():
    baseline = _run(supervised=False)
    supervised = _run(supervised=True)
    # The supervisor must strictly beat doing nothing, on both axes,
    # for both services.
    assert supervised["kv_downtime_ms"] < baseline["kv_downtime_ms"]
    assert supervised["kv_mttr_ms"] < baseline["kv_mttr_ms"]
    assert supervised["ctr_downtime_ms"] < baseline["ctr_downtime_ms"]
    assert supervised["ctr_mttr_ms"] < baseline["ctr_mttr_ms"]
    # And it must leave the group at full factor — repaired, not just
    # masked — having actually replaced, revived and recovered.
    assert supervised["final_live"] == 3
    heal = supervised["heal"]
    assert heal["replacements"] >= 1
    assert heal["revivals"] >= 1
    assert heal["singleton_recoveries"] >= 1
    assert heal["detector"]["heartbeats_observed"] > 0
    return {"baseline": baseline, "supervised": supervised}, {}
