"""Tests for replication transparency: object groups."""

import pytest

from repro import ReplicationSpec
from repro.errors import GroupError, NoQuorumError
from tests.conftest import Counter, KvStore


def build_group(trio_domain, policy="active", replicas=3, quorum=1):
    world, domain, capsules, clients = trio_domain
    spec = ReplicationSpec(replicas=replicas, policy=policy,
                           reply_quorum=quorum)
    group, gref = domain.groups.create(KvStore, capsules[:replicas], spec)
    proxy = world.binder_for(clients).bind(gref)
    return world, domain, group, proxy, capsules


def member_states(domain, group):
    states = []
    for member in group.view.members:
        capsule, interface = domain.groups._plumbing[
            (group.group_id, member.index)]
        if interface.implementation is not None:
            states.append(dict(interface.implementation.data))
        else:
            states.append(None)
    return states


class TestGroupBasics:
    def test_group_ref_looks_like_a_singleton(self, trio_domain):
        world, domain, group, proxy, _ = build_group(trio_domain)
        proxy.put("k", "v")
        assert proxy.get("k") == "v"

    def test_writes_reach_all_members(self, trio_domain):
        world, domain, group, proxy, _ = build_group(trio_domain)
        proxy.put("a", "1")
        proxy.put("b", "2")
        states = member_states(domain, group)
        assert all(s == {"a": "1", "b": "2"} for s in states)

    def test_members_apply_in_identical_order(self, trio_domain):
        world, domain, group, proxy, _ = build_group(trio_domain)
        for i in range(10):
            proxy.put("k", str(i))  # same key: order matters
        states = member_states(domain, group)
        assert all(s == {"k": "9"} for s in states)
        seqs = [m.applied_seq for m in group.view.live_members()]
        assert len(set(seqs)) == 1  # all members at the same sequence

    def test_reads_are_not_relayed(self, trio_domain):
        world, domain, group, proxy, _ = build_group(trio_domain)
        proxy.put("k", "v")
        before = [m.applied_seq for m in group.view.members]
        for _ in range(5):
            proxy.get("k")
        after = [m.applied_seq for m in group.view.members]
        assert before == after

    def test_too_few_capsules_rejected(self, trio_domain):
        world, domain, capsules, clients = trio_domain
        with pytest.raises(GroupError):
            domain.groups.create(KvStore, capsules[:2],
                                 ReplicationSpec(replicas=3))


class TestFailover:
    def test_sequencer_crash_masked(self, trio_domain):
        world, domain, group, proxy, _ = build_group(trio_domain)
        proxy.put("before", "crash")
        sequencer_node = group.view.sequencer.node
        world.crash_node(sequencer_node)
        proxy.put("after", "crash")  # triggers failover transparently
        assert proxy.get("before") == "crash"
        assert proxy.get("after") == "crash"
        assert group.view.number >= 2

    def test_survives_f_minus_one_crashes(self, trio_domain):
        world, domain, group, proxy, _ = build_group(trio_domain)
        proxy.put("x", "1")
        world.crash_node(group.view.sequencer.node)
        proxy.put("y", "2")
        world.crash_node(group.view.sequencer.node)
        proxy.put("z", "3")
        assert proxy.get("x") == "1"
        assert proxy.get("z") == "3"
        assert len(group.view.live_members()) == 1

    def test_all_members_dead_raises(self, trio_domain):
        world, domain, group, proxy, capsules = build_group(trio_domain)
        for capsule in capsules:
            world.crash_node(capsule.nucleus.node_address)
        with pytest.raises(GroupError):
            proxy.put("k", "v")

    def test_heartbeats_detect_silent_crashes(self, trio_domain):
        world, domain, group, proxy, _ = build_group(trio_domain)
        domain.supervisor.start()
        victim = group.view.members[1]
        world.crash_node(victim.node)
        world.scheduler.run_until(world.now + 300.0)
        domain.supervisor.stop()
        assert not victim.alive
        assert group.view.number >= 2

    def test_quorum_enforced_after_losses(self, trio_domain):
        world, domain, group, proxy, capsules = build_group(
            trio_domain, quorum=3)
        proxy.put("k", "v")  # all three ack
        world.crash_node(capsules[2].nucleus.node_address)
        with pytest.raises(NoQuorumError):
            proxy.put("k2", "v2")


class TestMembership:
    def test_join_receives_state_transfer(self, trio_domain):
        world, domain, capsules, clients = trio_domain
        spec = ReplicationSpec(replicas=2, policy="active")
        group, gref = domain.groups.create(KvStore, capsules[:2], spec)
        proxy = world.binder_for(clients).bind(gref)
        proxy.put("k", "v")
        member = domain.groups.join(group.group_id, capsules[2])
        assert member.applied_seq == group.view.sequencer.applied_seq
        proxy.put("k2", "v2")
        states = member_states(domain, group)
        assert all(s == {"k": "v", "k2": "v2"} for s in states)

    def test_graceful_leave(self, trio_domain):
        world, domain, group, proxy, _ = build_group(trio_domain)
        proxy.put("k", "v")
        leaver = group.view.members[2]
        domain.groups.leave(group.group_id, leaver.index)
        proxy.put("k2", "v2")
        assert len(group.view.members) == 2
        assert proxy.get("k2") == "v2"

    def test_cannot_remove_last_member(self, trio_domain):
        world, domain, capsules, clients = trio_domain
        spec = ReplicationSpec(replicas=1)
        group, _ = domain.groups.create(KvStore, capsules[:1], spec)
        from repro.errors import MembershipError
        with pytest.raises(MembershipError):
            domain.groups.leave(group.group_id,
                                group.view.members[0].index)

    def test_revive_resyncs_stale_member(self, trio_domain):
        world, domain, group, proxy, capsules = build_group(trio_domain)
        proxy.put("k", "1")
        victim = group.view.members[2]
        world.crash_node(victim.node)
        domain.groups.suspect(group.group_id, victim)
        proxy.put("k", "2")  # victim misses this
        world.restart_node(victim.node)
        domain.groups.revive(group.group_id, victim.index)
        proxy.put("k", "3")
        states = member_states(domain, group)
        assert all(s == {"k": "3"} for s in states)
        assert group.state_transfers >= 1


class TestPolicies:
    def test_read_spread_rotates_members(self, trio_domain):
        world, domain, group, proxy, _ = build_group(
            trio_domain, policy="read_spread")
        proxy.put("k", "v")
        layer = proxy._channel.layers[-1]
        for _ in range(6):
            assert proxy.get("k") == "v"
        assert layer.read_spread_reads == 6
        # Reads landed on several members.
        ops = [m.layer.applied_ops for m in group.view.members]
        assert sum(1 for count in ops if count > 1) >= 2

    def test_read_spread_survives_member_loss(self, trio_domain):
        world, domain, group, proxy, capsules = build_group(
            trio_domain, policy="read_spread")
        proxy.put("k", "v")
        world.crash_node(capsules[1].nucleus.node_address)
        for _ in range(4):
            assert proxy.get("k") == "v"

    def test_standby_policy_is_not_accepted(self):
        """A hot standby is the active policy: every member applies
        every write, and the sequencer's fail-over is the standby's."""
        with pytest.raises(ValueError, match="standby"):
            ReplicationSpec(policy="standby")

    def test_standby_reads_served_by_primary(self, trio_domain):
        world, domain, group, proxy, _ = build_group(
            trio_domain, policy="active")
        proxy.put("k", "v")
        primary = group.view.sequencer
        backups = [m for m in group.view.members
                   if m.index != primary.index]
        backup_ops_before = [m.layer.applied_ops for m in backups]
        for _ in range(5):
            proxy.get("k")
        assert [m.layer.applied_ops for m in backups] == backup_ops_before

    def test_standby_failover_preserves_state(self, trio_domain):
        world, domain, group, proxy, _ = build_group(
            trio_domain, policy="active")
        for i in range(5):
            proxy.put(f"k{i}", str(i))
        world.crash_node(group.view.sequencer.node)
        assert proxy.get("k3") == "3"  # hot standby took over


class TestGroupAndCounterSemantics:
    def test_counter_group_is_exactly_once_per_member(self, trio_domain):
        world, domain, capsules, clients = trio_domain
        spec = ReplicationSpec(replicas=3, policy="active")
        group, gref = domain.groups.create(Counter, capsules, spec)
        proxy = world.binder_for(clients).bind(gref)
        for _ in range(7):
            proxy.increment()
        for member in group.view.members:
            capsule, interface = domain.groups._plumbing[
                (group.group_id, member.index)]
            assert interface.implementation.value == 7
