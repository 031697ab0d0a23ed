"""Partition tolerance: quorum writes, split-brain-safe supervision,
merge-on-heal reconciliation.

The scenarios here drive *real* partitions through the fault plan and
assert the platform's partition story end to end: a minority-side
sequencer can never make a write durable (staged apply + quorum barrier
+ rollback), the supervisor never declares deaths from the wrong side
of a split (vantage panel, minority hold, suspicion veto), and healing
re-admits fenced members through reconciliation rather than fiat.
"""

import pytest

from repro import ReplicationSpec, World
from repro.check import mutations
from repro.comp.constraints import EnvironmentConstraints, FailureSpec
from repro.comp.invocation import Invocation, QoS
from repro.engine.remote import invoke_at
from repro.errors import EpochFencedError, NoQuorumError
from repro.groups.client import GroupInvokeLayer
from repro.groups.member import VIEW_KEY
from repro.heal.supervisor import Supervisor
from repro.net.fault import (
    AsymPartitionWindow,
    FaultPlan,
    FaultSchedule,
    PartitionWindow,
)
from tests.conftest import Counter, KvStore


def partition_world(seed=23, extra_nodes=0):
    world = World(seed=seed)
    names = [f"n{i + 1}" for i in range(3 + extra_nodes)]
    for name in names + ["client-node"]:
        world.node("org", name)
    capsules = {name: world.capsule(name, "srv") for name in names}
    clients = world.capsule("client-node", "clients")
    return world, world.domain("org"), capsules, clients


def build_group(world, domain, capsules, clients, quorum=2):
    spec = ReplicationSpec(replicas=3, policy="active",
                           reply_quorum=quorum)
    group, gref = domain.groups.create(
        KvStore, [capsules[n] for n in ("n1", "n2", "n3")], spec,
        group_id="part.kv")
    proxy = world.binder_for(clients).bind(gref)
    return group, proxy


def member_layers(domain, group):
    return {member.index: member.layer
            for member in group.view.members}


def member_data(domain, group):
    states = {}
    for member in group.view.members:
        _, interface = domain.groups._plumbing[
            (group.group_id, member.index)]
        states[member.index] = (dict(interface.implementation.data)
                                if interface.implementation is not None
                                else None)
    return states


def client_layer(proxy) -> GroupInvokeLayer:
    return next(layer for layer in proxy._channel.layers
                if isinstance(layer, GroupInvokeLayer))


# ---------------------------------------------------------------------------
# The quorum barrier (the dirty-write regression, pinned)
# ---------------------------------------------------------------------------

class TestQuorumBarrier:
    def test_failed_quorum_write_rolls_back_everywhere(self):
        """Pinned regression: partition the sequencer mid-write.

        Before the barrier, the sequencer applied writes locally
        *before* counting acks and kept them when the quorum failed —
        a healed partition then held divergent state.  After a
        NoQuorumError every member (sequencer included) must be exactly
        where it was before the attempt.
        """
        world, domain, capsules, clients = partition_world()
        group, proxy = build_group(world, domain, capsules, clients)
        proxy.put("k", "v0")
        sequencer = group.view.sequencer
        assert sequencer.node == "n1"
        seq_layer = sequencer.layer
        seq_before = seq_layer.applied_seq
        states_before = member_data(domain, group)

        world.partition(["n1", "client-node"], ["n2", "n3"])
        with pytest.raises(NoQuorumError):
            proxy.put("k", "dirty")

        # The sequencer's staged apply was rolled back: same seq, same
        # data, on every member — no trace of the write anywhere.
        assert seq_layer.applied_seq == seq_before
        assert member_data(domain, group) == states_before
        assert all(data == {"k": "v0"}
                   for data in member_data(domain, group).values())
        assert seq_layer.quorum_failures >= 1
        assert seq_layer.rolled_back_writes >= 1

    def test_burned_seq_and_ledger_after_heal(self):
        """Aborted writes burn their sequence number; the commit
        ledger records a quorum certificate for every surviving write
        and nothing for the rolled-back one."""
        world, domain, capsules, clients = partition_world()
        group, proxy = build_group(world, domain, capsules, clients)
        proxy.put("k", "v0")
        seq_layer = group.view.sequencer.layer

        world.partition(["n1", "client-node"], ["n2", "n3"])
        with pytest.raises(NoQuorumError):
            proxy.put("k", "dirty")
        world.heal_partition()
        for member in group.view.members:
            if not member.alive:
                domain.groups.revive("part.kv", member.index)
        proxy.put("k", "v1")

        committed = [entry[0] for entry in seq_layer.commit_log]
        assert committed == sorted(committed)
        assert len(committed) == len(set(committed))
        # The burned seq sits between the two committed ones.
        assert committed[-1] > committed[0] + 1
        # Every coordinator entry carries a quorum-sized certificate.
        for _seq, _view, acks, _digest in seq_layer.commit_log:
            assert acks is not None and acks >= 2
        assert all(data == {"k": "v1"}
                   for data in member_data(domain, group).values())
        seqs = {m.applied_seq for m in group.view.live_members()}
        assert len(seqs) == 1

    def test_mutation_restores_the_dirty_write_bug(self):
        """The ``quorumbarrier`` fault model reproduces the pre-fix
        protocol: the dirty apply survives and the ledger records the
        under-quorum certificate (what the split_brain oracle trips on).
        """
        world, domain, capsules, clients = partition_world()
        group, proxy = build_group(world, domain, capsules, clients)
        proxy.put("k", "v0")
        seq_layer = group.view.sequencer.layer
        world.partition(["n1", "client-node"], ["n2", "n3"])
        with mutations.applied("quorumbarrier"):
            with pytest.raises(NoQuorumError):
                proxy.put("k", "dirty")
        # The dirty write stuck to the sequencer...
        assert member_data(domain, group)[0] == {"k": "dirty"}
        # ...and the ledger holds the evidence: acks below quorum.
        assert seq_layer.commit_log[-1][2] == 1
        assert seq_layer.rolled_back_writes == 0


# ---------------------------------------------------------------------------
# FaultPlan partitions: validation, composition, asymmetric splits
# ---------------------------------------------------------------------------

class TestFaultPlanPartitions:
    def test_partition_validates_node_names(self):
        world, domain, capsules, clients = partition_world()
        with pytest.raises(ValueError, match="unknown node"):
            world.partition(["n1"], ["not-a-node"])

    def test_node_in_two_groups_rejected(self):
        plan = FaultPlan()
        with pytest.raises(ValueError, match="two partition groups"):
            plan.partition(["a", "b"], ["b", "c"])

    def test_incremental_partitions_compose(self):
        plan = FaultPlan()
        plan.partition(["a"], ["b"])
        plan.partition(["c"])  # a later call adds new sides
        assert plan.link_blocked("a", "b")
        assert plan.link_blocked("a", "c")
        assert plan.link_blocked("b", "c")
        assert not plan.link_blocked("a", "a")

    def test_heal_partition_single_node_rejoins(self):
        plan = FaultPlan()
        plan.partition(["a"], ["b", "c"])
        plan.heal_partition("a")
        assert not plan.link_blocked("a", "b")
        assert plan.link_blocked("b", "c") is False

    def test_asym_partition_blocks_one_direction(self):
        plan = FaultPlan()
        plan.asym_partition(["a"], ["b", "c"])
        assert plan.link_blocked("a", "b")
        assert plan.link_blocked("a", "c")
        assert not plan.link_blocked("b", "a")
        assert not plan.link_blocked("c", "a")
        plan.heal_asym_partition(["a"], ["b", "c"])
        assert not plan.link_blocked("a", "b")

    def test_asym_partition_world_requests_fail_one_way(self):
        world, domain, capsules, clients = partition_world()
        ref = capsules["n1"].export(Counter(), interface_id="part.ctr")
        proxy = world.binder_for(clients).bind(
            ref, qos=QoS(deadline_ms=100.0, retries=1))
        assert proxy.increment() == 1
        # Requests out of client-node are blocked; replies the other
        # way would still flow — but no request ever arrives.
        world.asym_partition(["client-node"], ["n1"])
        from repro.errors import CommunicationError
        with pytest.raises(CommunicationError):
            proxy.increment()
        world.faults.heal_asym_partition(["client-node"], ["n1"])
        assert proxy.increment() == 2

    def test_partition_windows_enter_and_heal_on_schedule(self):
        world, domain, capsules, clients = partition_world()
        schedule = FaultSchedule(
            PartitionWindow((("n1",), ("n2", "n3", "client-node")),
                            start_ms=50.0, end_ms=100.0),
            AsymPartitionWindow(("n2",), ("n3",),
                                start_ms=60.0, end_ms=120.0))
        world.apply_chaos(schedule)
        world.clock.advance(55.0)
        world.faults.pump()
        assert world.faults.link_blocked("n1", "n2")
        world.clock.advance(10.0)  # now 65: both windows open
        world.faults.pump()
        assert world.faults.link_blocked("n2", "n3")
        assert not world.faults.link_blocked("n3", "n2")
        world.clock.advance(40.0)  # now 105: partition healed
        world.faults.pump()
        assert not world.faults.link_blocked("n1", "n2")
        assert world.faults.link_blocked("n2", "n3")  # asym still open
        world.clock.advance(20.0)  # now 125: all clear
        world.faults.pump()
        assert not world.faults.link_blocked("n2", "n3")
        assert schedule.activations == 4


# ---------------------------------------------------------------------------
# Client retry classification
# ---------------------------------------------------------------------------

class TestClientRetryClassification:
    def test_no_quorum_crosses_the_wire_as_itself(self):
        from repro.engine.wire_errors import encode_error, raise_error
        from repro.ndr.codec import Marshaller

        payload = encode_error(NoQuorumError("1 of 2"), Marshaller())
        assert payload["code"] == "no_quorum"
        with pytest.raises(NoQuorumError):
            raise_error(payload, Marshaller())
        assert NoQuorumError.retryable is True

    def test_quorum_loss_is_retried_not_failed_over(self):
        """NoQuorumError says *other* members were unreachable — the
        client must not suspect the sequencer, trip a breaker, or start
        a failover storm from the minority side."""
        world, domain, capsules, clients = partition_world()
        group, proxy = build_group(world, domain, capsules, clients)
        proxy.put("k", "v0")
        layer = client_layer(proxy)
        sequencer = group.view.sequencer

        world.partition(["n1", "client-node"], ["n2", "n3"])
        with pytest.raises(NoQuorumError):
            proxy.put("k", "dirty")

        assert layer.quorum_retries >= 1
        assert layer.failovers == 0
        # The sequencer itself was never suspected by the client.
        assert sequencer.alive
        assert group.view.sequencer is sequencer
        # And no breaker opened against it: the error is a clean,
        # retryable protocol outcome, not endpoint failure evidence.
        snapshot = clients.nucleus.breakers.snapshot()
        assert snapshot["trips"] == 0

    def test_fencing_after_partition_is_refresh_not_death(self):
        """A member fenced out by a partition rejects stale-view writes
        with EpochFencedError; clients refresh and keep working — the
        fence is never treated as a crash (no further failovers)."""
        world, domain, capsules, clients = partition_world()
        group, proxy = build_group(world, domain, capsules, clients)
        proxy.put("k", "v0")
        layer = client_layer(proxy)
        old_sequencer = group.view.sequencer
        stale_view = group.view.number

        # Sequencer alone on the minority side: the majority (with the
        # client) elects a new sequencer and keeps committing.
        world.partition(["n1"], ["n2", "n3", "client-node"])
        proxy.put("k", "v1")
        assert layer.failovers == 1
        assert group.view.number > stale_view
        world.heal_partition()

        # The healed zombie's stale-view write is fenced, and fencing
        # bumps the member's own counter rather than killing anyone.
        fenced = group.view.sequencer
        stale = Invocation(interface_id=fenced.interface_id,
                           operation="put", args=("k", "zombie"))
        stale.context.extra[VIEW_KEY] = stale_view
        with pytest.raises(EpochFencedError):
            invoke_at(clients.nucleus, clients, fenced.node,
                      fenced.capsule_name, fenced.interface_id, stale)
        assert fenced.layer.fenced_rejections >= 1

        # The client carries on under the refreshed view, and the
        # fencing caused no additional suspicion or failover.
        proxy.put("k", "v2")
        assert proxy.get("k") == "v2"
        assert layer.failovers == 1
        assert not old_sequencer.alive  # rejoin is explicit (revive)


# ---------------------------------------------------------------------------
# Split-brain-safe supervision
# ---------------------------------------------------------------------------

class TestSupervisionUnderPartition:
    def _stabilize(self, world, supervisor, ms=150.0):
        supervisor.start()
        world.scheduler.run_until(world.now + ms)

    def test_diagnose_partitioned_vs_crashed(self):
        world, domain, capsules, clients = partition_world()
        supervisor = domain.supervisor
        self._stabilize(world, supervisor)

        # n3 splits off with n2: the n2-homed vantage still hears it,
        # so the panel calls it dead-but-partitioned.
        world.partition(["n2", "n3"], ["n1", "client-node"])
        world.scheduler.run_until(world.now + 300.0)
        assert supervisor.node_dead("n3")
        assert supervisor.diagnose("n3") == "partitioned"

        world.heal_partition()
        world.scheduler.run_until(world.now + 300.0)
        assert supervisor.diagnose("n3") == "alive"

        # A real crash: no vantage hears it from anywhere.
        world.crash_node("n3")
        world.scheduler.run_until(world.now + 300.0)
        assert supervisor.diagnose("n3") == "crashed"
        supervisor.stop()

    def test_singleton_not_resurrected_during_partition(self):
        """Exactly-once resumption: a partitioned singleton is still
        running on the far side — recovering it would fork its
        identity.  Only a *crashed* one is re-instated."""
        world, domain, capsules, clients = partition_world()
        ref = capsules["n3"].export(
            Counter(),
            constraints=EnvironmentConstraints(
                failure=FailureSpec(checkpoint_every=1)),
            interface_id="part.ctr")
        proxy = world.binder_for(clients).bind(
            ref, qos=QoS(deadline_ms=200.0, retries=2))
        assert proxy.increment() == 1
        supervisor = domain.supervisor
        self._stabilize(world, supervisor)

        world.partition(["n2", "n3"], ["n1", "client-node"])
        world.scheduler.run_until(world.now + 400.0)
        assert supervisor.diagnose("n3") == "partitioned"
        assert supervisor.singleton_recoveries == 0

        world.heal_partition()
        world.scheduler.run_until(world.now + 300.0)
        assert supervisor.singleton_recoveries == 0
        assert proxy.increment() == 2  # same incarnation throughout

        world.crash_node("n3")
        world.scheduler.run_until(world.now + 400.0)
        assert supervisor.singleton_recoveries == 1
        resolved = domain.relocator.try_lookup("part.ctr")
        assert resolved.primary_path().node != "n3"
        assert proxy.increment() == 3
        supervisor.stop()

    def test_merge_on_heal_readmits_and_samples_mttr(self):
        world, domain, capsules, clients = partition_world()
        group, proxy = build_group(world, domain, capsules, clients)
        proxy.put("k", "v0")
        supervisor = domain.supervisor
        self._stabilize(world, supervisor)

        world.partition(["n2", "n3"], ["n1", "client-node"])
        world.scheduler.run_until(world.now + 400.0)
        down = [m for m in group.view.members if not m.alive]
        assert {m.node for m in down} == {"n2", "n3"}
        assert supervisor.partition_merges == 0

        world.heal_partition()
        world.scheduler.run_until(world.now + 500.0)
        assert all(m.alive for m in group.view.members)
        assert supervisor.partition_merges >= 1
        assert len(supervisor.reconciliation_mttr_ms) >= 1
        assert min(supervisor.reconciliation_mttr_ms) > 0.0
        # Re-admitted members converged via state transfer.
        proxy.put("k", "v1")
        assert all(data == {"k": "v1"}
                   for data in member_data(domain, group).values())
        report = supervisor.report()
        assert report["partition_merges"] == supervisor.partition_merges
        assert report["reconciliation_mttr_ms"]["merges"] >= 1
        supervisor.stop()

    def test_minority_side_supervisor_holds_repairs(self):
        """When most vantage points go blind at once, the supervisor
        is the one in the minority: it must hold suspicions and repairs
        instead of manufacturing a split brain."""
        world, domain, capsules, clients = partition_world(extra_nodes=2)
        supervisor = domain.supervisor
        self._stabilize(world, supervisor)

        # Vantage homes are client-node, n1, n2 (address order); strand
        # two of the three on a two-node island of a six-node fleet.
        world.partition(["client-node", "n1"],
                        ["n2", "n3", "n4", "n5"])
        world.scheduler.run_until(world.now + 400.0)
        assert supervisor.minority_holds >= 1
        assert supervisor.suspicions_raised == 0
        assert supervisor.revivals == 0
        world.heal_partition()
        world.scheduler.run_until(world.now + 300.0)
        supervisor.stop()

    def test_panel_vetoes_minority_accusations(self):
        """A minority-side sequencer cannot evict the majority: its
        uncorroborated suspicions are second-guessed by the vantage
        panel, which still hears the accused nodes."""
        world, domain, capsules, clients = partition_world()
        group, proxy = build_group(world, domain, capsules, clients)
        proxy.put("k", "v0")
        # One vantage per node: the majority side outvotes observers
        # stranded with the accuser.
        supervisor = Supervisor(domain, vantage=4)
        domain._supervisor = supervisor
        self._stabilize(world, supervisor)

        world.partition(["n1", "client-node"], ["n2", "n3"])
        with pytest.raises(NoQuorumError):
            proxy.put("k", "dirty")

        # The sequencer's CommunicationError-based suspicions of n2/n3
        # were vetoed: both members are still in the view.
        assert domain.groups.suspicions_refused >= 1
        assert all(m.alive for m in group.view.members)

        world.heal_partition()
        world.scheduler.run_until(world.now + 300.0)
        proxy.put("k", "v1")
        assert all(data == {"k": "v1"}
                   for data in member_data(domain, group).values())
        supervisor.stop()


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------

class TestPartitionReporting:
    def test_domain_report_surfaces_partition_counters(self):
        from repro.mgmt.monitor import TransparencyMonitor

        world, domain, capsules, clients = partition_world()
        group, proxy = build_group(world, domain, capsules, clients)
        proxy.put("k", "v0")
        world.partition(["n1", "client-node"], ["n2", "n3"])
        with pytest.raises(NoQuorumError):
            proxy.put("k", "dirty")
        world.heal_partition()

        report = TransparencyMonitor(domain).domain_report()
        partitions = report["partitions"]
        assert partitions["quorum_failures"] >= 1
        assert partitions["rolled_back_writes"] >= 1
        assert "fenced_rejections" in partitions
        assert "suspicions_refused" in partitions
        # Supervisor-side merge counters only appear with a supervisor.
        assert "partition_merges" not in partitions
        domain.supervisor  # instantiate lazily
        report = TransparencyMonitor(domain).domain_report()
        partitions = report["partitions"]
        assert partitions["partition_merges"] == 0
        assert partitions["reconciliation_mttr_ms"]["merges"] == 0
