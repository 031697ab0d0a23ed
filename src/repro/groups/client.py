"""The client-side group invocation layer.

Makes a replica group look like a singleton: the layer consults the group
registry for the current view, routes writes to the sequencer (which
relays), spreads reads over members when the policy asks for it, and on
sequencer failure triggers a view change and retries — so the client never
sees a crash of f < n members.
"""

from __future__ import annotations

from repro.comp.invocation import Invocation
from repro.comp.outcomes import Termination
from repro.engine.layers import ClientLayer
from repro.engine.remote import invoke_at
from repro.errors import (
    CommunicationError,
    EpochFencedError,
    GroupError,
    GroupUnavailableError,
    MembershipError,
    OdpError,
)
from repro.groups.member import ROLE_KEY, VIEW_KEY
from repro.overload.deadline import deadline_of
from repro.resilience.retry import RetryGate, Verdict, classify


class GroupInvokeLayer(ClientLayer):
    """Transparent invocation of a replica group."""

    name = "replication"

    #: How many sequencer failovers one invocation may ride out.
    max_view_changes = 5

    def __init__(self, registry, group_id: str, nucleus, capsule) -> None:
        self.registry = registry
        self.group_id = group_id
        self.nucleus = nucleus
        self.capsule = capsule
        #: Follower reads (repro.lease): serve read-only invocations
        #: from any live replica even when the group policy routes them
        #: to the sequencer.  A follower may trail the sequencer by
        #: in-flight relays, so this is a *bounded-staleness* read — the
        #: same contract the lease cache gives, and it is switched on
        #: for the same read-mostly interfaces.
        self.follower_reads = False
        self.failovers = 0
        self.quorum_retries = 0
        self.read_spread_reads = 0

    def request(self, invocation: Invocation, next_layer) -> Termination:
        # The group layer terminates the client stack: it never calls
        # next_layer, because delivery is per-member via the registry view.
        group = self.registry.group(self.group_id)

        if self._readonly(group, invocation) and \
                (group.spec.policy == "read_spread" or self.follower_reads):
            return self._read_anywhere(group, invocation)

        gate = self._gate(invocation)
        attempts = self.max_view_changes + 1
        no_quorum = None
        for attempt in range(attempts):
            sequencer = group.view.sequencer
            if sequencer is None:
                raise GroupUnavailableError(
                    f"group {self.group_id} has no live members; retry "
                    f"once a supervisor revives or replaces them")
            if attempt:
                # Every path here followed a definitely-not-executed
                # failure (fenced / rolled-back quorum loss / unreached)
                # so a client-side shed is safe — and mandatory once the
                # propagated deadline is dead or the budget is dry.
                gate.retry(sequencer.node)
            else:
                gate.first(sequencer.node)
            # Stamp the view this request was routed under, so a stale
            # routing decision is fenced at the member instead of being
            # applied under the wrong membership (split-brain guard).
            invocation.context.extra[VIEW_KEY] = group.view.number
            try:
                return invoke_at(
                    self.nucleus, self.capsule, sequencer.node,
                    sequencer.capsule_name, sequencer.interface_id,
                    invocation)
            except OdpError as error:
                rule = classify(error)
                if rule.verdict is Verdict.REFRESH:
                    # The member outlives our view knowledge, not the
                    # other way round: re-read the view and retry
                    # without suspecting it.
                    continue
                elif rule.verdict is Verdict.SAME_VIEW:
                    # The write rolled back.  Retrying without
                    # suspecting anyone means a partition cannot start
                    # a failover storm from the client side.
                    self.quorum_retries += 1
                    no_quorum = error
                elif rule.suspect:
                    self.failovers += 1
                    self.registry.suspect(self.group_id, sequencer)
                else:
                    raise
        if no_quorum is not None:
            raise no_quorum
        raise GroupError(
            f"group {self.group_id}: no usable sequencer after "
            f"{attempts} view changes")

    def _gate(self, invocation: Invocation) -> RetryGate:
        return RetryGate(self.nucleus, "group", f"group {self.group_id}",
                         deadline_of(invocation.context.extra))

    def _readonly(self, group, invocation: Invocation) -> bool:
        op = group.signature.operations.get(invocation.operation)
        return op is not None and op.readonly

    def _read_anywhere(self, group, invocation: Invocation) -> Termination:
        """Spread read demand over the live members (availability)."""
        live_count = len(group.view.live_members())
        if live_count == 0:
            raise GroupUnavailableError(
                f"group {self.group_id} has no live members to read "
                f"from; retry once a supervisor revives or replaces them")
        gate = self._gate(invocation)
        tried = 0
        while tried < live_count:
            if not group.view.live_members():
                break  # every candidate was suspected mid-loop
            member = group.rotate_reader()
            if tried:
                gate.retry(member.node)
            else:
                gate.first(member.node)
            read = Invocation(
                interface_id=member.interface_id,
                operation=invocation.operation,
                args=invocation.args,
                kind=invocation.kind,
                qos=invocation.qos,
                context=invocation.context.copy(),
            )
            read.context.extra[ROLE_KEY] = "read"
            read.context.extra[VIEW_KEY] = group.view.number
            try:
                self.read_spread_reads += 1
                return invoke_at(
                    self.nucleus, self.capsule, member.node,
                    member.capsule_name, member.interface_id, read)
            except EpochFencedError:
                tried += 1
            except (CommunicationError, MembershipError):
                # Kept apart from the classification table on purpose:
                # a read is served by whichever member answers, and any
                # communication failure — lost and busy included —
                # counts against the member that gave it.  The table
                # would blame only the unreachable; the default-mode
                # digests pin this.
                self.registry.suspect(self.group_id, member)
                tried += 1
        raise GroupError(
            f"group {self.group_id}: no member could serve the read")
