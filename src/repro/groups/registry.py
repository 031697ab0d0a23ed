"""The group registry: membership, failover and state transfer.

One per domain.  It creates replica groups (exporting one implementation
per capsule and wiring the ordering layer into each member's server
stack), executes view changes when members are suspected (by a client,
a sequencer or the domain supervisor's heartbeats), reconciles
divergence after a sequencer crash, and performs state transfer so "new
members can join and current members can leave" (section 5.3).

The registry's management traffic is charged to the virtual clock as a
per-contact control cost rather than full message exchanges — the data
path (client -> sequencer -> members) is fully message-accurate.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.comp.constraints import EnvironmentConstraints, ReplicationSpec
from repro.comp.model import signature_of
from repro.comp.reference import AccessPath, InterfaceRef
from repro.errors import (
    GroupError,
    GroupUnavailableError,
    MembershipError,
)
from repro.groups.group import Member, ReplicaGroup
from repro.groups.member import GroupMemberLayer
from repro.tx.versions import restore_snapshot, take_snapshot
from repro.types.signature import InterfaceSignature

#: Virtual-ms charged per member contacted during group management.
CONTROL_COST_MS = 0.2


class GroupRegistry:
    """Creates and manages replica groups for one domain."""

    def __init__(self, domain) -> None:
        self.domain = domain
        self._groups: Dict[str, ReplicaGroup] = {}
        self._factories: Dict[str, Callable] = {}
        #: member bookkeeping: (group_id, index) -> (capsule, interface)
        self._plumbing: Dict[Tuple[str, int], Tuple] = {}
        self._member_counter: Dict[str, int] = {}
        self.suspicions = 0
        #: Suspicions vetoed by the supervisor's vantage panel: the
        #: accuser could not see the member but a quorum of observer
        #: vantage points still can (i.e. the accuser is partitioned,
        #: not the accused dead).
        self.suspicions_refused = 0

    # -- creation ---------------------------------------------------------------

    def create(self, factory: Callable, capsules: List,
               spec: ReplicationSpec,
               signature: Optional[InterfaceSignature] = None,
               constraints: Optional[EnvironmentConstraints] = None,
               group_id: Optional[str] = None
               ) -> Tuple[ReplicaGroup, InterfaceRef]:
        """Replicate ``factory()`` across *capsules* under *spec*.

        Returns the group and a group reference that clients bind exactly
        like a singleton reference.
        """
        if len(capsules) < spec.replicas:
            raise GroupError(
                f"need {spec.replicas} capsules, got {len(capsules)}")
        capsules = capsules[:spec.replicas]
        group_id = group_id or self.domain.mint("group")
        prototype = factory()
        signature = signature or signature_of(prototype)
        member_constraints = (constraints
                              or EnvironmentConstraints.DEFAULT).but(
            replication=None)

        group = ReplicaGroup(group_id, signature, spec)
        self._groups[group_id] = group
        self._factories[group_id] = factory
        self._member_counter[group_id] = 0

        members = []
        for position, capsule in enumerate(capsules):
            implementation = prototype if position == 0 else factory()
            members.append(self._wire_member(group, capsule,
                                             implementation,
                                             member_constraints))
        group.new_view(members, sequencer_index=members[0].index)
        group.view.number = 1
        return group, self.group_ref(group)

    def _wire_member(self, group: ReplicaGroup, capsule, implementation,
                     constraints) -> Member:
        from repro.transparency.compiler import prepend_server_layer

        index = self._member_counter[group.group_id]
        self._member_counter[group.group_id] = index + 1
        interface_id = f"{group.group_id}.m{index}"
        capsule.export(implementation, signature=group.signature,
                       constraints=constraints, interface_id=interface_id)
        interface = capsule.interfaces[interface_id]
        layer = GroupMemberLayer(self, group.group_id, index, capsule)
        prepend_server_layer(capsule, interface, layer)
        member = Member(index=index, node=capsule.nucleus.node_address,
                        capsule_name=capsule.name,
                        interface_id=interface_id, layer=layer)
        self._plumbing[(group.group_id, index)] = (capsule, interface)
        return member

    # -- lookups ----------------------------------------------------------------

    def group(self, group_id: str) -> ReplicaGroup:
        try:
            return self._groups[group_id]
        except KeyError:
            raise GroupError(f"unknown group {group_id!r}") from None

    def group_ids(self) -> List[str]:
        return sorted(self._groups)

    def group_ref(self, group: ReplicaGroup) -> InterfaceRef:
        if not group.available or not group.view.live_members():
            raise GroupUnavailableError(
                f"group {group.group_id} has no live members to bind; "
                f"retry after a supervisor revives or replaces them")
        paths = tuple(
            AccessPath(m.node, m.capsule_name, "rrp",
                       self.domain.wire_format_of(m.node))
            for m in group.view.live_members())
        return InterfaceRef(group.group_id, group.signature, paths,
                            epoch=group.view.number, group=True)

    # -- failure handling ----------------------------------------------------------

    def _charge(self, contacts: int) -> None:
        self.domain.scheduler.clock.advance(CONTROL_COST_MS * contacts)

    def panel_vetoes(self, member: Member) -> bool:
        """Ask the domain supervisor's vantage panel to second-guess.

        An uncorroborated suspicion (a sequencer whose relay timed out,
        a client whose request failed over) is refused when a running
        supervisor's quorum of observer vantage points can still hear
        the member's node: the likely story is that the *accuser* is on
        the wrong side of a partition.  Without a supervisor the old
        first-report-wins semantics are preserved exactly.
        """
        supervisor = getattr(self.domain, "_supervisor", None)
        if supervisor is None or not supervisor.running:
            return False
        return supervisor.vetoes_suspicion(member.node)

    def suspect(self, group_id: str, member: Member,
                corroborated: bool = False) -> None:
        """A member was observed failing: run a view change without it.

        *corroborated* marks suspicions already backed by a quorum of
        observer vantage points (the supervisor's own); everything else
        is subject to the vantage-panel veto.
        """
        group = self.group(group_id)
        target = next((m for m in group.view.members
                       if m.index == member.index and m.alive), None)
        if target is None:
            return
        if not corroborated and self.panel_vetoes(target):
            self.suspicions_refused += 1
            return
        self.suspicions += 1
        target.alive = False
        survivors = group.view.live_members()
        if not survivors:
            # Last survivor gone: mark the group unavailable explicitly
            # so binding fails with a retryable signal, rather than
            # handing out a ref with zero access paths.
            group.available = False
            group.new_view(group.view.members,
                           group.view.sequencer_index)
            return
        self._reconcile_and_install(group, survivors)

    def _reconcile_and_install(self, group: ReplicaGroup,
                               survivors: List[Member]) -> None:
        """Pick the most advanced survivor as sequencer; resync the rest."""
        self._charge(len(survivors))
        best = max(survivors, key=lambda m: m.applied_seq)
        group.observe_seq(best.applied_seq)
        for member in survivors:
            if member.applied_seq < best.applied_seq or \
                    (member.layer is not None and member.layer.out_of_sync):
                self._state_transfer(group, source=best, target=member)
        group.new_view(group.view.members, sequencer_index=best.index)

    def _state_transfer(self, group: ReplicaGroup, source: Member,
                        target: Member) -> None:
        src_capsule, src_interface = self._plumbing[
            (group.group_id, source.index)]
        dst_capsule, dst_interface = self._plumbing[
            (group.group_id, target.index)]
        if src_interface.implementation is None or \
                dst_interface.implementation is None:
            raise MembershipError(
                f"state transfer impossible in group {group.group_id}")
        snapshot = take_snapshot(src_interface.implementation)
        restore_snapshot(dst_interface.implementation, snapshot)
        target.layer.applied_seq = source.layer.applied_seq
        target.layer.out_of_sync = False
        group.state_transfers += 1
        self._charge(2)

    # -- membership changes ------------------------------------------------------------

    def join(self, group_id: str, capsule) -> Member:
        """Add a fresh replica on *capsule*, state-transferred up to date."""
        group = self.group(group_id)
        factory = self._factories[group_id]
        constraints = EnvironmentConstraints.DEFAULT.but(replication=None)
        member = self._wire_member(group, capsule, factory(), constraints)
        sequencer = group.view.sequencer
        if sequencer is not None:
            self._state_transfer(group, source=sequencer, target=member)
        members = group.view.members + [member]
        group.new_view(members,
                       sequencer_index=(sequencer.index if sequencer
                                        else member.index))
        group.available = True
        return member

    def leave(self, group_id: str, member_index: int) -> None:
        """Graceful departure: no reconciliation needed."""
        group = self.group(group_id)
        remaining = [m for m in group.view.members
                     if m.index != member_index]
        if not remaining:
            raise MembershipError(
                f"cannot remove the last member of {group_id}")
        sequencer = group.view.sequencer
        new_seq_index = (sequencer.index
                         if sequencer and sequencer.index != member_index
                         else remaining[0].index)
        group.new_view(remaining, sequencer_index=new_seq_index)

    def revive(self, group_id: str, member_index: int) -> None:
        """Bring a previously suspected member back (after node restart)."""
        group = self.group(group_id)
        member = next((m for m in group.view.members
                       if m.index == member_index), None)
        if member is None:
            raise MembershipError(f"no member {member_index} in {group_id}")
        if member.layer is None:
            raise MembershipError(
                f"member {member_index} of {group_id} was never wired "
                f"into a capsule (no ordering layer); cannot revive")
        member.alive = True
        member.layer.out_of_sync = True
        survivors = group.view.live_members()
        self._reconcile_and_install(group, survivors)
        group.available = True

    # -- reporting ----------------------------------------------------------------

    def partition_stats(self) -> Dict[str, int]:
        """Aggregate partition-tolerance counters across all members."""
        stats = {"quorum_failures": 0, "rolled_back_writes": 0,
                 "fenced_rejections": 0,
                 "suspicions_refused": self.suspicions_refused}
        for group in self._groups.values():
            for member in group.view.members:
                layer = member.layer
                if layer is None:
                    continue
                stats["quorum_failures"] += layer.quorum_failures
                stats["rolled_back_writes"] += layer.rolled_back_writes
                stats["fenced_rejections"] += layer.fenced_rejections
        return stats
