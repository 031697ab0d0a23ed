"""The full-scan supervision tick — a test oracle.

:class:`ReferenceSupervisor` is the production
:class:`~repro.heal.supervisor.Supervisor` with the tick it had before
the quiet-tick rule: every scan runs on every tick and finds out for
itself, member by member and node by node, that it has nothing to do.
``tests/test_selfheal.py`` runs the same plans under both and holds the
production tick to it: the same run digests, heal report, ``heal.*``
spans and repair bookkeeping.  Nothing in the package imports it.

What the production tick guards is written out here as it was before
the guards: the tick, the shard drain / re-admission loop and the walk
over group members.  The scans the tick merely skips (suspicion, group
repair, singleton recovery, lease revocation) are the production
methods, called unconditionally.
"""

from __future__ import annotations

from repro.errors import OdpError
from repro.heal.supervisor import Supervisor


class ReferenceSupervisor(Supervisor):
    """A supervisor whose tick runs every scan unconditionally."""

    def _poll(self) -> None:
        self._watch_group_members()
        for _, detector in self._vantages:
            detector.poll()
        blind = [index for index, (_, detector)
                 in enumerate(self._vantages)
                 if self._is_blind(detector)]
        for index in blind:
            monitor, _ = self._vantages[index]
            monitor.rehome()
            self._span("heal.rehome", {"vantage": index,
                                       "observer": monitor.observer})
        if blind and len(blind) * 2 > len(self._vantages):
            self.minority_holds += 1
            self._span("heal.minority-hold", {"blind": len(blind)})
            return
        self._suspect_members()
        self._update_availability()
        self._repair_groups()
        self._reinstate_singletons()
        self._rebalance_shards(quiet=False)
        self._revoke_dead_leases()

    def _watch_group_members(self) -> None:
        groups = self.domain.groups
        for group_id in groups.group_ids():
            for member in groups.group(group_id).view.members:
                self._watch(member.node, member.capsule_name)

    def _rebalance_shards(self, quiet: bool) -> None:
        if self.domain._shards is None:
            return
        now = self.domain.scheduler.clock.now
        for space in self.domain.shards.spaces():
            rebalancer = space.rebalancer
            members = set(space.ring.nodes()) | set(space.owners.values())
            for node in sorted(members):
                key = (space.name, node)
                if not self.node_dead(node):
                    self._shard_down.pop(key, None)
                    continue
                down_since = self._shard_down.setdefault(key, now)
                if self.diagnose(node) != "crashed":
                    continue
                try:
                    if space.ring.has_node(node):
                        moves = rebalancer.node_left(
                            node, dead=True, down_since=down_since)
                    else:
                        moves = rebalancer.rebalance(
                            dead=frozenset((node,)),
                            down_since=down_since)
                except OdpError as exc:
                    self.repair_failures += 1
                    self._span("heal.shard-drain-failed",
                               {"space": space.name, "node": node,
                                "error": type(exc).__name__})
                    continue
                if node not in set(space.owners.values()):
                    self._shard_down.pop(key, None)
                if moves:
                    self._span("heal.shard-drain",
                               {"space": space.name, "node": node,
                                "moves": len(moves)})
            for node in sorted(space.capsules):
                if space.ring.has_node(node) or not self.node_alive(node):
                    continue
                capsule = space.capsules[node]
                nucleus = self.domain.nuclei.get(node)
                if nucleus is None or \
                        nucleus.capsules.get(capsule.name) is not capsule:
                    continue
                try:
                    moves = rebalancer.node_joined(capsule)
                except OdpError as exc:
                    self.repair_failures += 1
                    self._span("heal.shard-rejoin-failed",
                               {"space": space.name, "node": node,
                                "error": type(exc).__name__})
                    continue
                self._span("heal.shard-rejoin",
                           {"space": space.name, "node": node,
                            "moves": len(moves)})
