"""C25 — Partition tolerance: quorum writes and merge-on-heal.

Claim (sections 4-5): a network partition is the failure mode that
separates "replicated" from "partition-tolerant".  A minority-side
sequencer must not be able to make a write durable (the quorum
barrier), the supervisor must not mistake the far side of a partition
for a crashed fleet (the vantage panel), and a healed partition must
*merge* — fenced members re-admitted with state transfer — rather than
leave the group permanently degraded.

Method: one seeded scenario, run twice.  Three server nodes host a
3-replica KvStore group (s1-s3, quorum 2, sequencer on s1).  A
scripted :class:`FaultSchedule` then opens three flapping partitions,
each stranding the sequencer with one writer client on the minority
side ({a0, s1} | {cli, s2, s3}).  Two clients probe every 25ms of
virtual time: ``cli`` writes from the majority side (the availability
series) and ``a0`` writes from the minority side (the safety series —
every one of its in-window writes must fail cleanly):

  * baseline — no supervisor, and the check harness's
               ``quorumbarrier`` fault model installs the pre-fix
               dirty-write protocol.  The first minority
               write "commits" locally with a 1-of-2 quorum
               certificate, and its uncorroborated suspicions of the
               unreachable majority replicas are accepted unchecked,
               so the group tears itself apart: the majority side
               never recovers even after the network heals.
  * fixed    — the quorum barrier rolls every minority write back,
               a 5-vantage supervisor second-guesses partition-born
               suspicions and diagnoses s1 as partitioned (not
               crashed), and on heal re-admits it with state
               transfer (a partition merge).

Series produced, per mode: failed probes per side, under-quorum
commit-ledger entries, same-seq ledger divergence, and partition
merges.  Expected shape: the fixed platform shows *zero* divergent or
under-quorum ledger entries, at least one partition merge, and
strictly better majority-side availability than the baseline.
"""

import pytest

from repro import ReplicationSpec, World
from repro.check import mutations
from repro.comp.invocation import QoS
from repro.errors import OdpError
from repro.heal.supervisor import Supervisor
from repro.net.fault import FaultSchedule, PartitionWindow

from benchmarks.workloads import KvStore, as_report, write_report

PROBE_MS = 25.0
PROBES = 160                 # 4000ms of virtual time
#: Flapping splits: the sequencer's node s1 is stranded with the
#: minority writer a0, away from the replication quorum.
SPLITS = ((400.0, 900.0), (1500.0, 2000.0), (2600.0, 3100.0))
SIDES = (("a0", "s1"), ("cli", "s2", "s3"))
QUORUM = 2


def _ledger_audit(group):
    """Cross-member commit-ledger audit: (dirty entries, divergent seqs).

    Mirrors the ``split_brain`` oracle: an entry whose quorum
    certificate is smaller than ``reply_quorum`` is a dirty commit,
    and one sequence number holding two different write digests on
    different members is divergence.
    """
    dirty = 0
    by_seq = {}
    for member in group.view.members:
        layer = member.layer
        if layer is None:
            continue
        for seq, _view, acks, digest in layer.commit_log:
            if acks is not None and acks < QUORUM:
                dirty += 1
            by_seq.setdefault(seq, set()).add(digest)
    divergent = sum(1 for digests in by_seq.values() if len(digests) > 1)
    return dirty, divergent


def _run(fixed):
    world = World(seed=25)
    for name in ("a0", "cli", "s1", "s2", "s3"):
        world.node("org", name)
    domain = world.domain("org")
    servers = {n: world.capsule(n, "srv") for n in ("s1", "s2", "s3")}
    majority_clients = world.capsule("cli", "clients")
    minority_clients = world.capsule("a0", "clients")

    group, gref = domain.groups.create(
        KvStore, [servers[n] for n in ("s1", "s2", "s3")],
        ReplicationSpec(replicas=3, policy="active",
                        reply_quorum=QUORUM),
        group_id="c25.kv")
    qos = QoS(deadline_ms=120.0, retries=2)
    kv_major = world.binder_for(majority_clients).bind(gref, qos=qos)
    kv_minor = world.binder_for(minority_clients).bind(gref, qos=qos)
    kv_major.put("seed", "v0")  # a committed write predates any chaos

    world.apply_chaos(FaultSchedule(
        *[PartitionWindow(SIDES, start, end) for start, end in SPLITS]))
    supervisor = None
    if fixed:
        supervisor = Supervisor(domain, vantage=5)
        domain._supervisor = supervisor
        supervisor.start()

    major_failed, minor_failed = [], []
    # The baseline arm runs the pre-fix sequencer protocol.
    with mutations.applied(*([] if fixed else ["quorumbarrier"])):
        for tick in range(PROBES):
            world.scheduler.run_until(world.now + PROBE_MS)
            world.faults.pump()
            # The minority writer probes first: in the baseline its
            # dirty commit and accepted suspicions land *before* the
            # majority side's failover can vote the sequencer out.
            try:
                kv_minor.put("minority", str(tick))
                minor_failed.append(False)
            except OdpError:
                minor_failed.append(True)
            try:
                kv_major.put("probe", str(tick))
                major_failed.append(False)
            except OdpError:
                major_failed.append(True)

    heal = supervisor.report() if fixed else None
    if fixed:
        supervisor.stop()
    dirty, divergent = _ledger_audit(group)
    return {
        "major_failed": sum(major_failed),
        "minor_failed": sum(minor_failed),
        "dirty_commits": dirty,
        "divergent_seqs": divergent,
        "merges": heal["partition_merges"] if fixed else 0,
        "final_live": len(group.view.live_members()),
        "partitions": domain.groups.partition_stats(),
        "heal": heal,
    }


@pytest.mark.parametrize("fixed", [False, True],
                         ids=["baseline", "fixed"])
def test_c25_partition_workload(benchmark, fixed):
    benchmark.group = "C25 flapping partitions"
    benchmark(lambda: _run(fixed))


def test_c25_report(benchmark):
    as_report(benchmark, _report)


def _report():
    baseline = _run(fixed=False)
    fixed = _run(fixed=True)
    rows = [f"workload: {PROBES} probes every {PROBE_MS:.0f}ms from each "
            f"side of a flapping partition (seed 25)",
            "splits: " + "; ".join(
                f"{int(s)}-{int(e)}ms" for s, e in SPLITS) +
            f"  [{' '.join(SIDES[0])}] | [{' '.join(SIDES[1])}]",
            f"{'mode':>9} {'majority':>9} {'minority':>9} {'dirty':>6} "
            f"{'divergent':>10} {'merges':>7}"]
    for name, row in (("baseline", baseline), ("fixed", fixed)):
        rows.append(
            f"{name:>9} {row['major_failed']:>9} {row['minor_failed']:>9} "
            f"{row['dirty_commits']:>6} {row['divergent_seqs']:>10} "
            f"{row['merges']:>7}")

    # Safety: the fixed platform never certifies an under-quorum write
    # and no two members ever hold different writes at one seq — while
    # the baseline's ledger visibly carries the pre-fix dirty commits.
    assert fixed["dirty_commits"] == 0
    assert fixed["divergent_seqs"] == 0
    assert baseline["dirty_commits"] >= 1
    # Liveness: the quorum barrier really fired and rolled back (the
    # safety above is not vacuous), the vantage panel really refused
    # partition-born suspicions, and the heal really merged.
    assert fixed["partitions"]["quorum_failures"] >= 1
    assert fixed["partitions"]["rolled_back_writes"] >= 1
    assert fixed["partitions"]["suspicions_refused"] >= 1
    assert fixed["merges"] >= 1
    assert fixed["final_live"] == 3
    # Availability: strictly better on the majority side than the
    # baseline, whose accepted minority suspicions wreck the group for
    # good — and the minority side recovers once the network does.
    assert fixed["major_failed"] < baseline["major_failed"]
    assert fixed["minor_failed"] < baseline["minor_failed"]

    rows.append("")
    heal = fixed["heal"]
    rows.append(
        f"fixed: {fixed['partitions']['quorum_failures']} quorum "
        f"failure(s) rolled back, "
        f"{fixed['partitions']['suspicions_refused']} suspicion(s) "
        f"vetoed, {heal['partition_merges']} partition merge(s), "
        f"reconciliation mttr "
        f"{heal['reconciliation_mttr_ms']['mean']:.0f}ms; majority "
        f"failed probes {baseline['major_failed']} -> "
        f"{fixed['major_failed']}")
    write_report("C25", "partition tolerance: quorum writes, vantage "
                        "supervision and merge-on-heal under flapping "
                        "partitions (sections 4-5)", rows)
