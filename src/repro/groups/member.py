"""The member-side ordering layer.

Attached to every replica's server stack.  When this member is the
sequencer, a client invocation is assigned the next sequence number,
*staged* locally (a before-image is taken first), relayed — in order,
synchronously — to the other live members, and only **committed** once
``reply_quorum`` members acknowledged it.  A write that falls short of
quorum is rolled back everywhere it landed and surfaces as a retryable
:class:`NoQuorumError`: a minority-side sequencer can never make a
write durable, which is what keeps a healed partition free of split
brain.  When the invocation arrives as a relay, the layer checks the
chain discipline (the relay names the sequence number the sequencer
committed *previously*; a mismatch means this member fell out of sync
and must leave the view for a state transfer) and applies it.

Every member also keeps an append-only **commit ledger** of the writes
it holds.  The ledger deliberately survives state transfer: it is the
evidence the ``split_brain`` check oracle audits, so a repaired member
cannot launder a dirty (under-quorum) commit by being resynced.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.comp.invocation import Invocation
from repro.comp.outcomes import OK, Termination
from repro.engine.layers import ServerLayer
from repro.engine.remote import invoke_at
from repro.errors import (
    CommunicationError,
    EpochFencedError,
    MembershipError,
    NoQuorumError,
)
from repro.tx.versions import restore_snapshot, take_snapshot

#: context.extra keys used by the group protocol.
ROLE_KEY = "grole"
SEQ_KEY = "gseq"
VIEW_KEY = "gview"
#: The sequence number the sequencer had committed before this relay —
#: the chain discipline replicas verify instead of assuming seqs are
#: gap-free (aborted quorum writes *burn* their sequence numbers).
PREV_KEY = "gprev"


class GroupMemberLayer(ServerLayer):
    """Per-replica total-order enforcement, quorum commit and relay."""

    name = "group-member"

    def __init__(self, registry, group_id: str, member_index: int,
                 capsule) -> None:
        self.registry = registry
        self.group_id = group_id
        self.member_index = member_index
        self.capsule = capsule
        self.applied_seq = 0
        self.applied_ops = 0
        self.relayed_ops = 0
        self.out_of_sync = False
        #: Append-only commit ledger: (seq, view, acks, write) tuples.
        #: ``acks`` is the quorum certificate size on the member that
        #: coordinated the write and None on members that merely
        #: applied a relay.  Deliberately *not* copied by state
        #: transfer — see the module docstring.
        self.commit_log: List[Tuple] = []
        #: The one write staged but not yet committed on this member:
        #: (seq, prior applied_seq, before-image snapshot).
        self._staged: Optional[Tuple] = None
        self.quorum_failures = 0
        self.rolled_back_writes = 0
        self.fenced_rejections = 0

    # -- helpers --------------------------------------------------------------

    @property
    def group(self):
        return self.registry.group(self.group_id)

    def _me(self):
        for member in self.group.view.members:
            if member.index == self.member_index:
                return member
        return None

    def _is_readonly(self, interface, invocation: Invocation) -> bool:
        op = interface.signature.operations.get(invocation.operation)
        return op is not None and op.readonly

    # -- the layer ---------------------------------------------------------------

    def _fence(self, invocation: Invocation) -> None:
        """Epoch fencing: the split-brain guard (section 5.3).

        A zombie member — voted out of the view while its node was
        partitioned away — must not accept writes when the partition
        heals, and an invocation stamped with a view the group has
        since moved past must not be applied under the old membership.
        Both are rejected with a *fencible* error distinct from the
        failure signals: clients refresh the view and retry instead of
        suspecting a healthy member.
        """
        group = self.group
        me = self._me()
        if me is not None and not me.alive:
            self.fenced_rejections += 1
            raise EpochFencedError(
                f"member {self.member_index} of {self.group_id} is "
                f"fenced: voted out of view {group.view.number}")
        claimed = invocation.context.extra.get(VIEW_KEY)
        if claimed is not None and int(claimed) != group.view.number:
            self.fenced_rejections += 1
            raise EpochFencedError(
                f"member {self.member_index} of {self.group_id}: "
                f"invocation claims view {claimed}, current view is "
                f"{group.view.number}")

    def handle(self, invocation: Invocation, interface,
               next_layer) -> Termination:
        self._fence(invocation)
        if self.out_of_sync:
            raise MembershipError(
                f"member {self.member_index} of {self.group_id} is out of "
                f"sync and awaiting state transfer")
        role = invocation.context.extra.get(ROLE_KEY)
        if role == "apply":
            return self._apply_relay(invocation, interface, next_layer)
        if role == "rollback":
            return self._apply_rollback(invocation, interface)
        if role == "read":
            self.applied_ops += 1
            return next_layer(invocation)
        return self._coordinate(invocation, interface, next_layer)

    @staticmethod
    def _write_digest(invocation: Invocation) -> str:
        return f"{invocation.operation}:{invocation.args!r}"

    def _apply_relay(self, invocation: Invocation, interface,
                     next_layer) -> Termination:
        extra = invocation.context.extra
        seq = int(extra.get(SEQ_KEY, 0))
        prev = int(extra.get(PREV_KEY, seq - 1))
        if self.applied_seq != prev:
            self.out_of_sync = True
            raise MembershipError(
                f"member {self.member_index} applied up to seq "
                f"{self.applied_seq} but the sequencer chained from "
                f"{prev}: out of sync")
        implementation = interface.implementation
        if implementation is not None:
            self._staged = (seq, self.applied_seq,
                            take_snapshot(implementation))
        termination = next_layer(invocation)
        view = int(extra.get(VIEW_KEY, self.group.view.number))
        self.commit_log.append(
            (seq, view, None, self._write_digest(invocation)))
        self.applied_seq = seq
        self.applied_ops += 1
        return termination

    def _apply_rollback(self, invocation: Invocation,
                        interface) -> Termination:
        """Undo a staged relay the sequencer failed to certify.

        Deliberately does *not* call the next layer: there is no
        operation to execute, only a before-image to restore.
        """
        seq = int(invocation.context.extra.get(SEQ_KEY, 0))
        staged = self._staged
        if staged is None or staged[0] != seq or self.applied_seq != seq:
            # This member holds a write it cannot take back; it must
            # leave the view and resync rather than diverge silently.
            self.out_of_sync = True
            raise MembershipError(
                f"member {self.member_index} cannot roll back seq "
                f"{seq} (staged={staged!r}, applied={self.applied_seq})")
        _, prev, snapshot = staged
        implementation = interface.implementation
        if implementation is not None and snapshot is not None:
            restore_snapshot(implementation, snapshot)
        if self.commit_log and self.commit_log[-1][0] == seq:
            self.commit_log.pop()
        self.applied_seq = prev
        self.applied_ops -= 1
        self.rolled_back_writes += 1
        self._staged = None
        return Termination(OK)

    def _as_sequencer(self):
        """The group, or MembershipError unless this member leads it."""
        group = self.group
        me = self._me()
        sequencer = group.view.sequencer
        if me is None or sequencer is None or \
                sequencer.index != self.member_index:
            raise MembershipError(
                f"member {self.member_index} is not the sequencer of "
                f"{self.group_id} (view {group.view.number})")
        return group

    def _fan_out(self, invocation: Invocation, seq: int, prev: int):
        """Relay a locally applied write to every other live member.

        Returns ``(acked, suspects)``; a suspect is ``(member,
        corroborated)``: a MembershipError is the member's own
        testimony that it diverged — positive evidence the panel must
        not veto — while a CommunicationError is an ambiguous liveness
        guess (could be a partition) the supervisor's vantage panel may
        overrule.  The grade only matters on the no-quorum path: once
        the write commits, every non-acking member verifiably misses
        committed state and is escalated by the caller.
        """
        acked = []
        suspects = []
        for member in self.group.view.live_members():
            if member.index == self.member_index:
                continue
            try:
                self._relay(invocation, member, seq, prev)
                acked.append(member)
            except MembershipError:
                suspects.append((member, True))
            except CommunicationError:
                suspects.append((member, False))
        return acked, suspects

    def _coordinate(self, invocation: Invocation, interface,
                    next_layer) -> Termination:
        group = self._as_sequencer()

        # Reads need not be ordered or relayed: the sequencer's state is
        # authoritative (writes are applied here first).
        if self._is_readonly(interface, invocation):
            self.applied_ops += 1
            return next_layer(invocation)

        # Stage: burn the sequence number (aborts never reuse it), take
        # a before-image, then apply locally.  The write is not
        # *committed* until reply_quorum members hold it.
        seq = group.next_seq()
        prev = self.applied_seq
        implementation = interface.implementation
        snapshot = None
        if implementation is not None:
            snapshot = take_snapshot(implementation)
        termination = next_layer(invocation)
        self.applied_seq = seq
        self.applied_ops += 1

        acked, suspects = self._fan_out(invocation, seq, prev)
        acks = 1 + len(acked)  # the sequencer itself
        quorum = group.spec.reply_quorum
        if acks < quorum:
            # Quorum barrier: undo the write everywhere it landed
            # *before* reporting suspects — a reconciliation triggered
            # by the suspicion must never spread uncommitted state.
            self.quorum_failures += 1
            self._rollback(invocation, seq, prev, snapshot,
                           implementation, acked, suspects)
            for member, corroborated in suspects:
                self.registry.suspect(self.group_id, member,
                                      corroborated=corroborated)
            raise NoQuorumError(
                f"{self.group_id}: only {acks} of {quorum} required "
                f"replicas acknowledged; write seq {seq} rolled back")
        self.commit_log.append(
            (seq, group.view.number, acks, self._write_digest(invocation)))
        self._note_lease_write(invocation)
        for member, _ in suspects:
            # The write committed without this member's ack: whatever
            # the failure was, the member verifiably misses committed
            # state now, and leaving it in the view would be silent
            # staleness — always corroborated, never vetoable.  (Only
            # the rollback path above reports liveness *guesses*: an
            # aborted write leaves nothing behind to miss.)
            self.registry.suspect(self.group_id, member,
                                  corroborated=True)
        self.relayed_ops += 1
        return termination

    def _note_lease_write(self, invocation: Invocation) -> None:
        """Invalidation piggyback (repro.lease): a quorum-committed
        write invalidates client caches of the *group* interface.

        Group clients cache under the group ref's interface id (the
        group id); member interface ids are never registered with the
        authority, so the generic per-dispatch hook in the capsule is a
        no-op for replicas and this commit-time note is the only
        fan-out a group write triggers.
        """
        domain = self.registry.domain
        if domain._leases is None:
            return
        tag = str(invocation.args[0]) if invocation.args else ""
        domain._leases.note_write(
            self.group_id, tag,
            source=self.capsule.nucleus.node_address)

    def _rollback(self, invocation: Invocation, seq: int, prev: int,
                  snapshot, implementation, acked, suspects) -> None:
        """Restore the before-image here and on every acked member.

        A member that cannot be rolled back (unreachable again, or its
        stage no longer matches) is added to *suspects* as corroborated:
        it verifiably holds a write the group aborted, and leaving it in
        the view would be silent divergence — this is not a liveness
        guess the supervisor's panel may veto.
        """
        if implementation is not None and snapshot is not None:
            restore_snapshot(implementation, snapshot)
        self.applied_seq = prev
        self.applied_ops -= 1
        self.rolled_back_writes += 1
        for member in acked:
            try:
                self._relay(invocation, member, seq, prev,
                            role="rollback")
            except (CommunicationError, MembershipError,
                    EpochFencedError):
                suspects.append((member, True))

    def _relay(self, invocation: Invocation, member, seq: int,
               prev: int, role: str = "apply") -> None:
        relay = Invocation(
            interface_id=member.interface_id,
            operation=invocation.operation,
            args=invocation.args,
            kind=invocation.kind,
            qos=invocation.qos,
            context=invocation.context.copy(),
            epoch=0,
        )
        relay.context.extra[ROLE_KEY] = role
        relay.context.extra[SEQ_KEY] = seq
        relay.context.extra[PREV_KEY] = prev
        relay.context.extra[VIEW_KEY] = self.group.view.number
        invoke_at(self.capsule.nucleus, self.capsule, member.node,
                  member.capsule_name, member.interface_id, relay)
