"""The per-domain Supervisor: detect -> diagnose -> repair.

RM-ODP's engineering model makes node management a first-class
engineering object; this is ours.  The supervisor closes the failure
transparency loop using *only observable behaviour*: the phi-accrual
detector tells it which endpoints stopped answering heartbeats, and it
repairs through the platform's ordinary mechanisms —

* a suspected group member is reported to the :class:`GroupRegistry`
  (view change, exactly as a client-side suspicion would);
* a group below its replication factor is repaired by **reviving** a
  voted-out member whose node is heartbeating again (revive + state
  transfer), or — when no member is revivable — by **replacing** it:
  a healthy, least-loaded node is chosen via ``mgmt.placement``
  and joined with state transfer;
* a checkpointed **singleton** whose node went silent is re-instated on
  a surviving capsule through the :class:`RecoveryManager`; clients
  chase the move through the relocation layer, none the wiser.

Every detector transition and repair action is recorded as a trace
span, and the supervisor keeps MTTR/availability counters that
``TransparencyMonitor.domain_report`` surfaces.

Supervision runs one way: ``domain.supervisor`` detects, diagnoses
and repairs on every tick.  Its only setting is the size of the
vantage panel; the heartbeat period, the phi threshold and the
detector window are class constants.

A *quiet* tick — every vantage hears every node — stays quiet (only the
detector's ``poll`` turns an endpoint suspect), so it skips the scans
that act only on a dead node; group repair runs only while a group is
short, shard re-admission only while a node is off its ring.

The supervisor never reads :class:`~repro.net.fault.FaultPlan` state:
detection latency is a measured property of heartbeat period, network
behaviour and the phi threshold.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import OdpError
from repro.heal.detector import PhiAccrualDetector
from repro.heal.heartbeat import HeartbeatMonitor


class _GroupHealth:
    """Availability bookkeeping for one group (virtual-time windows)."""

    __slots__ = ("degraded_since", "unavailable_since")

    def __init__(self) -> None:
        self.degraded_since: Optional[float] = None
        self.unavailable_since: Optional[float] = None


class Supervisor:
    """Self-healing supervision for one domain."""

    #: Heartbeat period, which is also the supervision tick (virtual ms).
    interval_ms = 20.0
    #: Phi above which a vantage suspects an endpoint.
    threshold = 8.0
    #: Inter-arrival samples each detector keeps per endpoint.
    window = 64

    def __init__(self, domain, vantage: int = 3) -> None:
        self.domain = domain
        #: Number of observer vantage points (clamped to the node count
        #: at start).  A member is declared dead only when a majority
        #: of the *credible* (non-blind) vantages agree — one observer
        #: losing sight of a node is indistinguishable from the
        #: observer sitting on the wrong side of a partition.
        self.vantage = max(1, vantage)
        self.detector = PhiAccrualDetector(
            domain.scheduler.clock, expected_interval_ms=self.interval_ms,
            threshold=self.threshold, window=self.window)
        self.monitor = HeartbeatMonitor(domain, self.detector,
                                        interval_ms=self.interval_ms)
        self.detector.on_transition(self._on_transition)
        #: (monitor, detector) pairs; index 0 is the primary above.
        self._vantages: List = [(self.monitor, self.detector)]
        self.poll_event = None
        self.running = False
        self._health: Dict[str, _GroupHealth] = {}
        #: (group_id, member_index) -> (down_since, diagnosis) recorded
        #: at suspicion time, consumed at revival for merge-on-heal
        #: accounting.
        self._down_records: Dict = {}
        #: (space_name, node) -> first panel-dead verdict time, so shard
        #: drain MTTR samples include detection latency.
        self._shard_down: Dict = {}
        #: group_id -> last walked view; a membership change replaces it.
        self._walked: Dict = {}
        # Repair/availability counters (all virtual-time).
        self.suspicions_raised = 0
        self.revivals = 0
        self.replacements = 0
        self.singleton_recoveries = 0
        self.repair_failures = 0
        self.minority_holds = 0
        self.partition_merges = 0
        self.reconciliation_mttr_ms: List[float] = []
        self.mttr_samples: List[float] = []
        self.degraded_ms = 0.0
        self.unavailable_ms = 0.0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        addresses = sorted(self.domain.nuclei)
        # Build the vantage panel: distinct observer homes in address
        # order.  The primary keeps today's placement (first address);
        # extras get their own detector so their verdicts stay
        # independent observations, not shared state.
        self.monitor.home = addresses[0] if addresses else None
        for home in addresses[1:min(self.vantage, len(addresses))]:
            detector = PhiAccrualDetector(
                self.domain.scheduler.clock,
                expected_interval_ms=self.interval_ms,
                threshold=self.threshold, window=self.window)
            monitor = HeartbeatMonitor(self.domain, detector,
                                       interval_ms=self.interval_ms,
                                       home=home)
            self._vantages.append((monitor, detector))
        for monitor, _ in self._vantages:
            monitor.start()
        # One endpoint per node: the gateway capsule every node gets at
        # creation — node-level liveness for placement decisions.
        for address in addresses:
            self._watch(address, "gateway")
        self._walked.clear()  # stop() dropped every emitter
        self._watch_group_members()
        self.poll_event = self.domain.scheduler.every(
            self.interval_ms, self._poll, label="heal-poll")

    def stop(self) -> None:
        if not self.running:
            return
        if self.poll_event is not None:
            self.poll_event.cancel()
            self.poll_event = None
        for monitor, _ in self._vantages:
            monitor.stop()
        self._vantages = [(self.monitor, self.detector)]
        # Close any open unavailability windows; an unrepaired outage is
        # counted as downtime but contributes no MTTR sample.
        now = self.domain.scheduler.clock.now
        for health in self._health.values():
            if health.degraded_since is not None:
                self.degraded_ms += now - health.degraded_since
                health.degraded_since = None
            if health.unavailable_since is not None:
                self.unavailable_ms += now - health.unavailable_since
                health.unavailable_since = None
        self.running = False

    # -- the supervision tick ------------------------------------------------

    def _poll(self) -> None:
        self._watch_group_members()
        for _, detector in self._vantages:
            detector.poll()
        quiet = self._quiet()  # see the module docstring
        if not quiet:
            # A vantage that lost sight of a *majority* of nodes at once
            # is blind (its observer crashed or sits on the minority
            # side of a partition), not watching a dead fleet: its
            # verdicts are excluded and its observation rotates on.
            blind = [index for index, (_, detector)
                     in enumerate(self._vantages)
                     if self._is_blind(detector)]
            for index in blind:
                monitor, _ = self._vantages[index]
                monitor.rehome()
                self._span("heal.rehome", {"vantage": index,
                                           "observer": monitor.observer})
            if blind and len(blind) * 2 > len(self._vantages):
                # Most of the panel cannot see a majority of the fleet:
                # the likelier story is that the *supervisor's* side is
                # the minority.  Declaring deaths or repairing from here
                # is how split brain gets manufactured — hold everything.
                self.minority_holds += 1
                self._span("heal.minority-hold", {"blind": len(blind)})
                return
            self._suspect_members()
        # Account *before* repairing: a repair that lands this tick is
        # observed closing its window on the next tick, so MTTR is
        # measured at supervision-period resolution instead of being
        # optimistically collapsed to zero.
        if self._update_availability():
            self._repair_groups()
        if not quiet:
            self._reinstate_singletons()
        self._rebalance_shards(quiet)
        if not quiet:
            self._revoke_dead_leases()

    def _quiet(self) -> bool:
        """No vantage has a node it hears nothing from."""
        for _, detector in self._vantages:
            if detector.node_counts()[1]:
                return False
        return True

    def _watch(self, node: str, capsule: str) -> None:
        for monitor, _ in self._vantages:
            monitor.watch(node, capsule)

    def _watch_group_members(self) -> None:
        """Heartbeat every group member endpoint (lazily, so groups
        created after start are picked up on the next tick); a view
        already walked has none to add."""
        groups = self.domain.groups
        for group_id in groups.group_ids():
            view = groups.group(group_id).view
            if self._walked.get(group_id) is view:
                continue
            self._walked[group_id] = view
            for member in view.members:
                self._watch(member.node, member.capsule_name)

    # -- panel verdicts -------------------------------------------------------

    @staticmethod
    def _is_blind(detector) -> bool:
        nodes, silent = detector.node_counts()
        return silent * 2 > nodes

    def _panel(self, node: str):
        """``(credible vantages, how many of them stopped hearing
        *node*)`` — a blind vantage has no say."""
        credible = votes = 0
        for _, detector in self._vantages:
            if not self._is_blind(detector):
                credible += 1
                if not detector.node_alive(node):
                    votes += 1
        return credible, votes

    def node_dead(self, node: str) -> bool:
        """Quorum-of-vantage verdict: a majority of the credible
        vantage points stopped hearing *node*."""
        credible, votes = self._panel(node)
        return votes * 2 > credible

    def node_alive(self, node: str) -> bool:
        """Panel-based liveness for placement decisions."""
        return not self.node_dead(node)

    def diagnose(self, node: str) -> str:
        """Classify a node: ``alive``, ``partitioned`` or ``crashed``.

        A node the panel declared dead but *some* vantage point still
        positively hears (real heartbeats, not primed optimism) is
        reachable from somewhere — partitioned, not crashed.  The
        distinction gates the repairs that must not run twice: a
        checkpointed singleton on a partitioned node is still running
        and must not be resurrected into a second incarnation.
        """
        if not self.node_dead(node):
            return "alive"
        hear_window = 2.0 * self.interval_ms
        if any(detector.node_heard(node, hear_window)
               for _, detector in self._vantages):
            return "partitioned"
        return "crashed"

    def vetoes_suspicion(self, node: str) -> bool:
        """Second-guess an uncorroborated suspicion (registry hook).

        True when the panel still believes *node* is alive — the
        accuser merely cannot reach it, which is exactly what its own
        partition would look like.
        """
        if not self.running or not self._panel(node)[0]:
            return False
        return not self.node_dead(node)

    def _suspect_members(self) -> None:
        """Report members on panel-dead nodes to the registry."""
        now = self.domain.scheduler.clock.now
        groups = self.domain.groups
        for group_id in groups.group_ids():
            group = groups.group(group_id)
            for member in list(group.view.live_members()):
                if not self.node_dead(member.node):
                    continue
                kind = self.diagnose(member.node)
                self._down_records[(group_id, member.index)] = (now, kind)
                groups.suspect(group_id, member, corroborated=True)
                self.suspicions_raised += 1
                self._span("heal.suspect",
                           {"group": group_id, "member": member.index,
                            "node": member.node, "diagnosis": kind})

    # -- repairs -------------------------------------------------------------

    def _repair_groups(self) -> None:
        from repro.mgmt.placement import placement_candidates

        groups = self.domain.groups
        for group_id in groups.group_ids():
            group = groups.group(group_id)
            # First choice: revive voted-out members whose node is
            # heartbeating again — cheapest repair, keeps placement.
            for member in sorted(group.view.members,
                                 key=lambda m: m.index):
                if len(group.view.live_members()) >= group.spec.replicas:
                    break
                if member.alive or member.layer is None:
                    continue
                if self.node_dead(member.node):
                    continue
                try:
                    groups.revive(group_id, member.index)
                except OdpError as exc:
                    self.repair_failures += 1
                    self._span("heal.revive-failed",
                               {"group": group_id, "member": member.index,
                                "error": type(exc).__name__})
                    continue
                self.revivals += 1
                record = self._down_records.pop(
                    (group_id, member.index), None)
                if record is not None and record[1] == "partitioned":
                    # Merge-on-heal: the member was fenced out by a
                    # partition, not a crash; its re-admission (view
                    # reconciliation + state transfer in revive) is a
                    # partition merge and its outage a reconciliation
                    # MTTR sample.
                    now = self.domain.scheduler.clock.now
                    self.partition_merges += 1
                    self.reconciliation_mttr_ms.append(now - record[0])
                self._span("heal.revive",
                           {"group": group_id, "member": member.index,
                            "node": member.node})
            # Still short, with at least one live member to transfer
            # state from: join a fresh replica on a healthy node.  (A
            # fully dead group is *not* replaced with empty replicas —
            # that would present data loss as availability.)
            live = group.view.live_members()
            if not live or len(live) >= group.spec.replicas:
                continue
            member_hosts = {m.node for m in group.view.members}
            capsule_names = sorted({m.capsule_name
                                    for m in group.view.members})
            for capsule_name in capsule_names:
                if len(group.view.live_members()) >= group.spec.replicas:
                    break
                for _, capsule in placement_candidates(
                        self.domain, capsule_name,
                        liveness=self.node_alive,
                        exclude=member_hosts):
                    try:
                        member = groups.join(group_id, capsule)
                    except OdpError as exc:
                        self.repair_failures += 1
                        self._span("heal.join-failed",
                                   {"group": group_id,
                                    "node": capsule.nucleus.node_address,
                                    "error": type(exc).__name__})
                        continue
                    self.replacements += 1
                    self._watch(member.node, member.capsule_name)
                    self._span("heal.replace",
                               {"group": group_id, "member": member.index,
                                "node": member.node})
                    break

    def _reinstate_singletons(self) -> None:
        """Re-instate checkpointed singletons whose node went silent."""
        from repro.mgmt.placement import placement_candidates

        if self.domain._repository is None:
            return  # nothing was ever checkpointed
        from repro.recovery.checkpoint import checkpoint_key

        groups = self.domain.groups
        member_iids = {member.interface_id
                       for group_id in groups.group_ids()
                       for member in groups.group(group_id).view.members}
        if self.domain._shards is not None:
            # Shards heal through their space's rebalancer (epoch-fenced
            # cutover + ownership publish); recovering one here would
            # bypass the fence and strand the space's routing state.
            for space in self.domain.shards.spaces():
                member_iids.update(space.shard_id(index)
                                   for index in range(space.shard_count))
        relocator = self.domain.relocator
        prefix = checkpoint_key("")
        for key in self.domain.repository.keys(kind="checkpoint"):
            interface_id = key[len(prefix):]
            if interface_id in member_iids:
                continue  # group members heal via revive/replace
            current = relocator.try_lookup(interface_id)
            if current is None or not current.paths:
                continue
            path = current.primary_path()
            # Resume exactly once: only a *crashed* singleton may be
            # re-instated.  A partitioned one is still running on the
            # far side; recovering it here would fork its identity.
            if self.diagnose(path.node) != "crashed":
                continue
            for _, capsule in placement_candidates(
                    self.domain, path.capsule,
                    liveness=self.node_alive,
                    exclude=(path.node,)):
                try:
                    self.domain.recovery.recover(interface_id, capsule)
                except OdpError as exc:
                    self.repair_failures += 1
                    self._span("heal.recover-failed",
                               {"interface": interface_id,
                                "node": capsule.nucleus.node_address,
                                "error": type(exc).__name__})
                    continue
                self.singleton_recoveries += 1
                self._span("heal.recover",
                           {"interface": interface_id,
                            "from": path.node,
                            "to": capsule.nucleus.node_address})
                break

    def _rebalance_shards(self, quiet: bool) -> None:
        """Drive shard-space rebalancing from panel verdicts.

        A member node the panel declares dead *and* diagnoses crashed is
        drained: its shards are re-instated from checkpoints elsewhere
        through the space's own rebalancer (epoch-fenced cutover), with
        the degraded window measured from the first dead verdict so the
        MTTR samples include detection latency.  A partitioned owner is
        held — its shards are still running on the far side, and
        recovering them here would fork their identity.  A previously
        known member that heartbeats again is re-admitted, migrating its
        ring share back.
        """
        if self.domain._shards is None:
            return
        now = self.domain.scheduler.clock.now
        for space in self.domain.shards.spaces():
            rebalancer = space.rebalancer
            members = (set(space.ring.nodes()) | set(space.owners.values())
                       if not quiet or self._shard_down else ())
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
                        # A previous drain left orphans (a recovery
                        # failed): converge again.
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
            # Re-admit recovered members: alive again, previously
            # registered, currently off the ring.  (Brand-new capacity
            # is the operator's call — node_joined with a capsule.)
            for node in sorted(space.capsules.keys()
                               - set(space.ring.nodes())):
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

    def _revoke_dead_leases(self) -> None:
        """Revoke every lease grant of a holder the panel declares dead.

        The holder cannot be told (it is dead or cut off by assumption)
        — its own cache self-fences at grant expiry on the shared
        virtual clock.  Revoking here stops the authority fanning
        writes out to a corpse, and the flush-all pending marker the
        authority leaves makes a *revived* holder drop its pre-crash
        cache at first contact instead of resuming from it.
        """
        if self.domain._leases is None:
            return
        authority = self.domain._leases
        for holder in authority.holders():
            if not self.node_dead(holder):
                continue
            revoked = authority.revoke_holder(holder)
            if revoked:
                self._span("heal.lease-revoke",
                           {"holder": holder, "leases": revoked})

    # -- availability accounting ---------------------------------------------

    def _update_availability(self) -> bool:
        """Account availability windows; True if a group is short."""
        now = self.domain.scheduler.clock.now
        groups = self.domain.groups
        short = False
        for group_id in groups.group_ids():
            group = groups.group(group_id)
            health = self._health.setdefault(group_id, _GroupHealth())
            live = len(group.view.live_members())
            if live == 0:
                if health.unavailable_since is None:
                    health.unavailable_since = now
            elif health.unavailable_since is not None:
                self.unavailable_ms += now - health.unavailable_since
                health.unavailable_since = None
            if live < group.spec.replicas:
                short = True
                if health.degraded_since is None:
                    health.degraded_since = now
            elif health.degraded_since is not None:
                duration = now - health.degraded_since
                self.degraded_ms += duration
                self.mttr_samples.append(duration)
                health.degraded_since = None
        return short

    # -- instrumentation -----------------------------------------------------

    def _on_transition(self, key, old: str, new: str, phi: float) -> None:
        self._span("heal.detector",
                   {"endpoint": f"{key[0]}/{key[1]}", "from": old,
                    "to": new, "phi": round(phi, 3)})

    def _span(self, name: str, tags: Dict) -> None:
        tracer = self.domain.tracer
        root = tracer.start_trace()
        tracer.span(name, "heal", root,
                    node=self.monitor.observer, tags=tags).finish()

    def report(self) -> Dict:
        """MTTR/availability counters for the management plane."""
        samples = self.mttr_samples
        merges = self.reconciliation_mttr_ms
        return {
            "detector": self.detector.stats(),
            "observer": self.monitor.observer,
            "vantage": len(self._vantages),
            "beats_sent": sum(m.beats_sent for m, _ in self._vantages),
            "rehomes": sum(m.rehomes for m, _ in self._vantages),
            "suspicions_raised": self.suspicions_raised,
            "revivals": self.revivals,
            "replacements": self.replacements,
            "singleton_recoveries": self.singleton_recoveries,
            "repair_failures": self.repair_failures,
            "minority_holds": self.minority_holds,
            "partition_merges": self.partition_merges,
            "reconciliation_mttr_ms": {
                "merges": len(merges),
                "mean": (round(sum(merges) / len(merges), 3)
                         if merges else 0.0),
                "max": round(max(merges), 3) if merges else 0.0,
            },
            "mttr_ms": {
                "repairs": len(samples),
                "mean": (round(sum(samples) / len(samples), 3)
                         if samples else 0.0),
                "max": round(max(samples), 3) if samples else 0.0,
            },
            "degraded_ms": round(self.degraded_ms, 3),
            "unavailable_ms": round(self.unavailable_ms, 3),
        }
