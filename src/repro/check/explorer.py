"""The chaos explorer: one seed in, one fully-recorded run out.

``run_plan`` builds a fresh simulated :class:`~repro.runtime.World`
(three server nodes, one client node), populates it with the reference
workload objects, attaches the plan's chaos windows, then executes the
plan's operations one per virtual-time slot.  Everything observable is
recorded: per-op outcomes into a :class:`~repro.check.history.History`,
client-side models for the oracles, and an end-of-run state snapshot
folded into the run digest.

The run is a pure function of ``(plan, config)``: the world is seeded
from the plan's seed and nothing here consults wall clocks, process
randomness or iteration order of unsorted collections.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.check import mutations
from repro.check.history import History, digest_run
from repro.check.plan import (
    CLIENT_NODE,
    SERVER_NODES,
    Plan,
    generate_plan,
)
from repro.check.workload import Account, Counter, KvStore, ShardStore
from repro.comp.constraints import EnvironmentConstraints, ReplicationSpec
from repro.comp.interface import InterfaceState
from repro.comp.invocation import QoS
from repro.comp.outcomes import Signal
from repro.errors import OdpError
from repro.net.fault import FaultSchedule
from repro.runtime import World
from repro.tx.transaction import TxState

_DOMAIN = "check"
_ALL_NODES = SERVER_NODES + (CLIENT_NODE,)


@dataclass(frozen=True)
class CheckConfig:
    """Tunable knobs of one exploration; defaults fit CI budgets."""

    ops: int = 60
    counters: int = 2
    accounts: int = 3
    initial_balance: int = 100
    group_size: int = 3
    reply_quorum: int = 2
    retries: int = 8
    deadline_ms: float = 400.0
    #: Virtual ms the clock is advanced before each op; also the unit
    #: the plan generator uses to aim chaos windows at the op timeline.
    op_budget_ms: float = 25.0
    max_windows: int = 4
    #: Active platform mutations (keys of :data:`mutations.MUTATIONS`).
    mutations: Tuple[str, ...] = ()
    #: Run the domain's self-healing supervisor (repro.heal) during the
    #: plan: heartbeats over the simulated network, observation-based
    #: failure detection, automatic revive/replace/recover.  Activates
    #: the ``self_heal`` oracle.
    supervisor: bool = False
    #: Virtual ms granted after chaos ends for the supervisor to finish
    #: repairs before final observations are taken.
    supervisor_grace_ms: float = 500.0
    #: Drive part of the workload through the high-throughput layer
    #: (repro.perf): plans gain ``batch_burst`` ops issued through a
    #: BatchClient, and every server nucleus gets a token-bucket
    #: admission controller sized so bursts occasionally queue and shed.
    batching: bool = False
    #: Widen chaos generation with symmetric and asymmetric partition
    #: windows and record each member's commit ledger for the
    #: ``split_brain`` oracle.  Gated (not default) so pinned plans and
    #: digests in the regression corpus stay byte-identical.
    partitions: bool = False
    #: Stand up a sharded object space (repro.shard) over the server
    #: nodes: plans gain keyed ``shard_incr``/``shard_get`` ops routed
    #: through the consistent-hash ring and ``shard_move`` ops that
    #: drain/re-admit nodes mid-traffic.  Activates the
    #: ``shard_routing`` oracle.
    shards: bool = False
    shard_count: int = 8
    #: Promote the replicated kv interface to cached mode (repro.lease):
    #: the client node gets a caching LeaseClient with read evidence
    #: recording, the group layer serves follower reads, and plans gain
    #: read-heavy ``cached_get``/``cached_burst`` ops.  Activates the
    #: ``staleness_bound`` oracle.  Gated so default plans/digests stay
    #: byte-identical.
    leases: bool = False
    #: Lease TTL — the staleness bound B the oracle enforces.  Long
    #: enough that a busy reader's half-life renewals outlast the
    #: typical clock advance between ops (so leases stay continuously
    #: held and broken invalidation is *observable* as staleness), short
    #: enough that plans still see grants lapse across the big jumps.
    lease_ttl_ms: float = 600.0
    #: Overload-robustness mode (repro.overload): the client nucleus
    #: stamps propagated deadlines and priorities onto the wire, every
    #: server gets a class-aware admission controller with a brownout
    #: controller, retry budgets enforce, and plans gain ``prio_invoke``
    #: ops with tight deadline tiers plus compute-stall chaos windows.
    #: Activates the ``overload_safety`` oracle.  Gated so default
    #: plans and digests stay byte-identical.
    overload: bool = False
    #: Deadline tiers (ms) for generated ``prio_invoke`` ops: the tight
    #: tiers expire for real under stall/gray windows and admission
    #: queue waits, the loose one mostly survives — so both the shed
    #: path and the happy path run.
    overload_tiers: Tuple[float, float, float] = (2.5, 30.0, 400.0)

    def with_batching(self) -> "CheckConfig":
        return replace(self, batching=True)

    def with_partitions(self) -> "CheckConfig":
        return replace(self, partitions=True)

    def with_shards(self, count: Optional[int] = None) -> "CheckConfig":
        changes: Dict[str, Any] = {"shards": True}
        if count is not None:
            changes["shard_count"] = count
        return replace(self, **changes)

    def with_leases(self, ttl_ms: Optional[float] = None) -> "CheckConfig":
        changes: Dict[str, Any] = {"leases": True}
        if ttl_ms is not None:
            changes["lease_ttl_ms"] = ttl_ms
        return replace(self, **changes)

    def with_overload(self) -> "CheckConfig":
        return replace(self, overload=True)

    def with_mutations(self, *names: str) -> "CheckConfig":
        for name in names:
            if name not in mutations.MUTATIONS:
                raise ValueError(
                    f"unknown mutation {name!r}; "
                    f"known: {sorted(mutations.MUTATIONS)}")
        return replace(self, mutations=tuple(names))

    def with_supervisor(self,
                        grace_ms: Optional[float] = None) -> "CheckConfig":
        changes: Dict[str, Any] = {"supervisor": True}
        if grace_ms is not None:
            changes["supervisor_grace_ms"] = grace_ms
        return replace(self, **changes)


@dataclass
class RunResult:
    """Everything the oracles (and the CLI) need to judge one run."""

    plan: Plan
    config: CheckConfig
    events: List[Dict[str, Any]]
    end_state: Dict[str, Any]
    digest: str
    #: name -> {"acked": n, "ambiguous": n, "shed": n} per counter.
    #: Shed increments (ServerBusyError) definitely did not execute, so
    #: they widen neither bound of the exactly-once envelope.
    counters: Dict[str, Dict[str, int]]
    counter_final: Dict[str, Optional[int]]
    #: Client-side account model (committed transfers applied).
    accounts_model: Dict[str, int]
    accounts_final: Dict[str, Optional[int]]
    #: True when any transaction finished with in-doubt participants.
    had_indoubt: bool
    #: Money that may legally be missing/duplicated due to in-doubt 2PC.
    indoubt_allowance: int
    #: Interface ids whose in-doubt outcome could not be re-delivered.
    unresolved_iids: List[str]
    #: key -> ordered [(value, acked)] group-write ledger.
    group_writes: Dict[str, List[Tuple[str, bool]]]
    group_final: Dict[str, Optional[str]]
    #: Per-member end state: index, alive, out_of_sync, data (or None).
    member_states: List[Dict[str, Any]]
    #: Per-surviving-object relocation probe:
    #: {obj, expected_node, resolved_node, final_ok}.
    relocation_probes: List[Dict[str, Any]]
    #: Per-collected-interface snapshot taken just before its sweep:
    #: {iid, state, live_lease}.
    gc_observations: List[Dict[str, Any]]
    #: Object names legally reclaimed by the collector.
    collected: List[str]
    #: Minimal span records for the clock oracle.
    spans: List[Dict[str, Any]]
    #: key -> {"acked": n, "ambiguous": n, "shed": n} per shard key
    #: (shards mode; same envelope semantics as ``counters``).
    shard_writes: Dict[str, Dict[str, int]] = field(default_factory=dict)
    shard_final: Dict[str, Optional[int]] = field(default_factory=dict)
    #: The shard fences' write-execution log: one entry per dispatched
    #: non-readonly shard invocation — {inv_id, op, shard, node, owner,
    #: epoch} — the ``shard_routing`` oracle's evidence.
    shard_log: List[Dict[str, Any]] = field(default_factory=list)
    #: The caching client's read evidence (leases mode): every cached or
    #: fetched read as {t, iid, op, tag, values, via} — what the
    #: ``staleness_bound`` oracle audits.
    lease_reads: List[Dict[str, Any]] = field(default_factory=list)
    #: key -> ordered [(value, t_ack, acked)] group-write ledger with
    #: client-observed ack times (leases mode).
    lease_writes: Dict[str, List[Tuple[str, float, bool]]] = \
        field(default_factory=dict)
    #: The deadline gates' execution logs (overload mode): every
    #: dispatched execution with the deadline it carried and the node
    #: it ran on — the ``overload_safety`` oracle's no-execution-past-
    #: deadline evidence.
    overload_executions: List[Dict[str, Any]] = field(default_factory=list)
    #: node -> ordered [(t, priority, verdict)] admission event log
    #: (overload mode) — the no-priority-inversion evidence.
    overload_admission: Dict[str, List[Tuple[float, int, str]]] = \
        field(default_factory=dict)
    #: "node:protocol" -> retry-budget stats from the client registry,
    #: snapshotted before the out-of-band final reads — the
    #: retry-volume-within-budget evidence.
    overload_budgets: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: (ratio, cap) the client's budgets ran under.
    overload_budget_params: Tuple[float, float] = (0.1, 10.0)
    violations: list = field(default_factory=list)


class _PlanAbort(Exception):
    """Deliberate client-side abort injected by ``cancel_transfer``."""


def _tally(outcomes: List[str]) -> Tuple[str, str]:
    """A burst's history entry: ``ok`` only when every member was, and
    the per-outcome counts as a label (``okx3,failed:…x1``)."""
    summary: Dict[str, int] = {}
    for outcome in outcomes:
        summary[outcome] = summary.get(outcome, 0) + 1
    label = ",".join(f"{key}x{summary[key]}" for key in sorted(summary))
    return ("ok" if set(outcomes) == {"ok"} else "mixed"), label


class _Run:
    """One in-flight execution of a plan (all the mutable bookkeeping)."""

    def __init__(self, plan: Plan, config: CheckConfig) -> None:
        self.plan = plan
        self.config = config
        self.history = History()
        self.world = World(seed=plan.seed)
        self.domain = self.world.domain(_DOMAIN)
        for node in SERVER_NODES:
            self.world.node(_DOMAIN, node)
        self.world.node(_DOMAIN, CLIENT_NODE)
        self.srv = {node: self.world.capsule(node, "srv")
                    for node in SERVER_NODES}
        self.app = self.world.capsule(CLIENT_NODE, "app")
        self.binder = self.world.binder_for(self.app)
        self.qos = QoS(deadline_ms=config.deadline_ms,
                       retries=config.retries)

        self.locations: Dict[str, str] = {}
        self.proxies: Dict[str, Any] = {}
        self.collected: set = set()
        self.counters: Dict[str, Dict[str, int]] = {}
        self.accounts_model: Dict[str, int] = {}
        self.had_indoubt = False
        self.indoubt_allowance = 0
        self.indoubt_txs: list = []
        self.group_writes: Dict[str, List[Tuple[str, bool]]] = {}
        self.gc_observations: List[Dict[str, Any]] = []

        for i in range(config.counters):
            self._place(f"c{i}", Counter(),
                        EnvironmentConstraints())
            self.counters[f"c{i}"] = {"acked": 0, "ambiguous": 0,
                                      "shed": 0}
        for i in range(config.accounts):
            self._place(f"a{i}", Account(config.initial_balance),
                        EnvironmentConstraints(concurrency=True))
            self.accounts_model[f"a{i}"] = config.initial_balance

        spec = ReplicationSpec(replicas=config.group_size,
                               policy="active",
                               reply_quorum=config.reply_quorum)
        self.group, gref = self.domain.groups.create(
            KvStore, [self.srv[node] for node in SERVER_NODES],
            spec, group_id="check.kv")
        self.gproxy = self.binder.bind(gref, qos=self.qos)

        self.space = None
        self.shard_writes: Dict[str, Dict[str, int]] = {}
        if config.shards:
            self.space = self.domain.shards.create(
                "check.grid", ShardStore,
                [self.srv[node] for node in SERVER_NODES],
                shards=config.shard_count)
            self.space.record_executions = True
            self.sproxy = self.space.bind(self.app, qos=self.qos)

        self.supervisor = None
        if config.supervisor:
            self.supervisor = self.domain.supervisor
            self.supervisor.start()

        self.lease_client = None
        self.lease_writes: Dict[str, List[Tuple[str, float, bool]]] = {}
        if config.leases:
            authority = self.domain.leases
            authority.default_ttl_ms = config.lease_ttl_ms
            authority.register("check.kv", ttl_ms=config.lease_ttl_ms)
            self.lease_client = authority.attach_client(self.app.nucleus)
            self.lease_client.record_reads = True
            # Reads the cache misses are spread over the live replicas
            # (bounded-staleness follower reads) instead of always
            # hitting the sequencer.
            for layer in self.gproxy._channel.layers:
                if getattr(layer, "name", "") == "replication":
                    layer.follower_reads = True

        self.batcher = None
        if config.batching:
            from repro.perf import AdmissionController, BatchClient, \
                BatchPolicy
            # Sized against the plan shape: ~12 tokens refill per
            # op-budget slot, burst below the largest generated burst,
            # bound low enough that back-to-back bursts shed — the shed
            # path must actually run, or its oracle handling is vacuous.
            for node in SERVER_NODES:
                nucleus = self.srv[node].nucleus
                nucleus.admission = AdmissionController(
                    self.world.clock, rate_per_s=500.0, burst=4,
                    max_queue=3)
            self.batcher = BatchClient(
                self.app, BatchPolicy(max_batch=8, linger_ms=0.5),
                qos=self.qos)

        self.overload_controllers: Dict[str, Any] = {}
        if config.overload:
            from repro.overload import BrownoutController, \
                ClassAdmissionController
            # The whole overload stack, end to end: the client stamps
            # deadlines/priorities and enforces retry budgets; every
            # server gets class-aware admission with brownout (sized so
            # stall windows really shed) and records the evidence the
            # overload_safety oracle judges.
            client = self.app.nucleus
            client.deadline_propagation = True
            client.retry_budgets.enabled = True
            # Sized against the plan shape: the refill (~0.6 tokens per
            # op-budget slot) runs *below* a node's typical demand, so
            # deficits really form — queue waits long enough to kill
            # the tight deadline tiers post-queue, class-0/1 sheds when
            # the deficit crosses their bounds, and brownout steps when
            # the waits of admitted work blow the target.
            for node in SERVER_NODES:
                nucleus = self.srv[node].nucleus
                controller = ClassAdmissionController(
                    self.world.clock, rate_per_s=24.0, burst=3,
                    max_queue=8,
                    brownout=BrownoutController(self.world.clock,
                                                target_p99_ms=20.0,
                                                window=16))
                controller.record_events = True
                nucleus.admission = controller
                nucleus.deadline_gate.record_executions = True
                self.overload_controllers[node] = controller

        self.schedule = FaultSchedule(*plan.windows)
        if plan.windows:
            self.world.apply_chaos(self.schedule)
            self.schedule.install(self.world.scheduler, self.world.faults)

    def _place(self, name: str, implementation, constraints) -> None:
        node = SERVER_NODES[len(self.locations) % len(SERVER_NODES)]
        ref = self.srv[node].export(implementation,
                                    constraints=constraints,
                                    interface_id=f"check.{name}")
        self.locations[name] = node
        self.proxies[name] = self.binder.bind(ref, qos=self.qos)

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _attempt(fn, *args, **kwargs) -> Tuple[str, Any]:
        """Run a proxy call; fold every outcome into (label, value)."""
        try:
            return "ok", fn(*args, **kwargs)
        except Signal as exc:
            return f"signal:{exc.name}", None
        except OdpError as exc:
            return f"failed:{type(exc).__name__}", None

    def _counter_name(self, op) -> str:
        return f"c{op.get('counter', 0) % self.config.counters}"

    def _object_name(self, op) -> Optional[str]:
        name = op.get("obj")
        if name in self.locations:
            return name
        return None

    # -- op execution --------------------------------------------------------

    def execute(self, index: int, op) -> None:
        t0 = self.world.now
        handler = getattr(self, f"_op_{op.kind}")
        outcome, detail = handler(op)
        self.history.record(index, repr(op), outcome, detail,
                            t0, self.world.now)

    def _op_invoke(self, op):
        name = self._counter_name(op)
        outcome, value = self._attempt(self.proxies[name].increment)
        self._count_increment(name, outcome)
        return outcome, value

    def _op_prio_invoke(self, op):
        """``n`` back-to-back increments carrying an explicit priority
        class and a tight propagated-deadline tier (overload mode;
        under the default config they degrade to plain increments so
        pinned overload plans still run everywhere).  The burst is the
        point: back-to-back arrivals outrun the admission refill, so
        the op itself builds the deficit that sheds its low classes
        and kills its tight deadlines in the queue."""
        name = self._counter_name(op)
        n = max(1, int(op.get("n", 1)))
        qos = None
        if self.config.overload:
            tiers = self.config.overload_tiers
            tier = tiers[op.get("tier", 0) % len(tiers)]
            prio = int(op.get("prio", 2)) % 4
            qos = QoS(deadline_ms=tier, retries=self.config.retries,
                      priority=prio)
        return _tally(self._serial_increments(name, n, qos))

    def _serial_increments(self, name: str, n: int,
                           qos: Optional[QoS] = None) -> List[str]:
        """n back-to-back increments of one counter (the binding's own
        QoS when *qos* is None), each folded into the counter model."""
        outcomes = []
        for _ in range(n):
            outcome, _value = self._attempt(
                self.proxies[name].increment, _qos=qos)
            self._count_increment(name, outcome)
            outcomes.append(outcome)
        return outcomes

    def _count_increment(self, name: str, outcome: str) -> None:
        if outcome == "ok":
            self.counters[name]["acked"] += 1
        elif outcome == "failed:ServerBusyError":
            # The shed contract: a ServerBusyError surfacing to the
            # caller means the final attempt was rejected *before*
            # dispatch and the earlier ones definitely did not execute
            # either (an executed attempt is answered from the reply
            # cache, never shed).  Unacked, not ambiguous.
            self.counters[name]["shed"] += 1
        elif outcome == "failed:InvocationExpiredError":
            # Expired at a deadline gate.  Usually definitely-not-
            # executed, but a retransmission whose original executed
            # (reply lost, cached reply already expiry-evicted) also
            # surfaces this — so it stays inside the ambiguous bound,
            # tracked separately for the overload report.
            self.counters[name]["ambiguous"] += 1
            self.counters[name]["expired"] = \
                self.counters[name].get("expired", 0) + 1
        else:
            # Anything else is ambiguous: the increment may or may not
            # have executed before the failure (0-or-1 bound).
            self.counters[name]["ambiguous"] += 1

    def _op_batch_burst(self, op):
        """n concurrent increments of one counter, coalesced when the
        batch client is on (default config: a plain serial burst, so
        pinned batching plans still run everywhere)."""
        name = self._counter_name(op)
        n = max(2, int(op.get("n", 2)))
        if self.batcher is None:
            outcomes = self._serial_increments(name, n)
        else:
            ref = self.proxies[name]._ref
            futures = [self.batcher.call(ref, "increment")
                       for _ in range(n)]
            # Let the linger timer fire (size-triggered flushes have
            # already gone out), then fold each member's outcome.
            self.world.scheduler.run_until(
                self.world.now + self.batcher.policy.linger_ms + 0.01)
            self.batcher.flush()
            outcomes = []
            for future in futures:
                outcome, _value = self._attempt(future.result)
                self._count_increment(name, outcome)
                outcomes.append(outcome)
        return _tally(outcomes)

    def _op_read(self, op):
        name = self._counter_name(op)
        return self._attempt(self.proxies[name].read)

    def _op_transfer(self, op, cancel: bool = False):
        config = self.config
        src = f"a{op.get('src', 0) % config.accounts}"
        dst = f"a{op.get('dst', 1) % config.accounts}"
        if src == dst:
            return "noop", None
        amount = int(op.get("amount", 1))
        manager = self.domain.tx_manager
        tx = manager.begin()
        label = None
        try:
            with tx:
                self.proxies[src].withdraw(amount)
                self.proxies[dst].deposit(amount)
                if cancel:
                    raise _PlanAbort()
        except _PlanAbort:
            label = "cancelled"
        except Signal as exc:
            label = f"signal:{exc.name}"
        except OdpError as exc:
            label = f"failed:{type(exc).__name__}"
        if tx.state == TxState.COMMITTED:
            self.accounts_model[src] -= amount
            self.accounts_model[dst] += amount
            outcome = "committed"
        else:
            outcome = "aborted"
        if tx.indoubt:
            self.had_indoubt = True
            self.indoubt_allowance += amount * len(tx.indoubt)
            self.indoubt_txs.append(tx)
            outcome += f"+indoubt:{len(tx.indoubt)}"
        return outcome, label

    def _op_cancel_transfer(self, op):
        return self._op_transfer(op, cancel=True)

    def _op_group_put(self, op):
        key = str(op.get("key", "k0"))
        value = str(op.get("value", ""))
        outcome, _ = self._attempt(self.gproxy.put, key, value)
        self.group_writes.setdefault(key, []).append(
            (value, outcome == "ok"))
        if self.config.leases:
            # The staleness oracle needs *when* the client learned the
            # write's fate, not just whether: record the ack time (at or
            # after the commit, so the bound judged from it is
            # conservative).
            self.lease_writes.setdefault(key, []).append(
                (value, round(self.world.now, 6), outcome == "ok"))
        return outcome, None

    def _op_group_get(self, op):
        key = str(op.get("key", "k0"))
        return self._attempt(self.gproxy.get, key)

    def _op_group_revive(self, op):
        members = self.group.view.members
        member = members[op.get("member", 0) % len(members)]
        if member.alive:
            return "noop", member.index
        if self.world.faults.is_crashed(member.node):
            return "skipped:crashed", member.index
        try:
            self.domain.groups.revive("check.kv", member.index)
            return "ok", member.index
        except OdpError as exc:
            return f"failed:{type(exc).__name__}", member.index

    def _op_relocate(self, op):
        name = self._object_name(op)
        if name is None:
            return "noop", None
        if name in self.collected:
            return "skipped:collected", name
        target = op.get("to")
        if target not in SERVER_NODES:
            return "noop", name
        current = self.locations[name]
        if target == current:
            return "noop", name
        faults = self.world.faults
        if faults.is_crashed(current) or faults.is_crashed(target):
            return "skipped:crashed", name
        interface = self.srv[current].interfaces.get(f"check.{name}")
        if interface is None or interface.state != InterfaceState.ACTIVE:
            return "skipped:not-active", name
        try:
            self.domain.migrator.migrate(self.srv[current],
                                         f"check.{name}",
                                         self.srv[target])
        except OdpError as exc:
            return f"failed:{type(exc).__name__}", name
        self.locations[name] = target
        return "ok", f"{name}:{current}->{target}"

    def _op_passivate(self, op):
        name = self._object_name(op)
        if name is None:
            return "noop", None
        if name in self.collected:
            return "skipped:collected", name
        node = self.locations[name]
        if self.world.faults.is_crashed(node):
            return "skipped:crashed", name
        interface = self.srv[node].interfaces.get(f"check.{name}")
        if interface is None or interface.state != InterfaceState.ACTIVE:
            return "noop", name
        try:
            self.domain.passivation.passivate(self.srv[node],
                                              f"check.{name}")
        except OdpError as exc:
            return f"failed:{type(exc).__name__}", name
        return "ok", name

    def _op_gc_sweep(self, op):
        collector = self.domain.collector
        now = self.world.now
        pre: Dict[str, Tuple[str, bool]] = {}
        for capsule in self.srv.values():
            for iid, interface in capsule.interfaces.items():
                pre[iid] = (interface.state.value,
                            collector.leases.has_live_lease(iid, now))
        report = collector.sweep()
        for iid in report.collected:
            state, lease = pre.get(iid, ("unknown", False))
            self.gc_observations.append(
                {"iid": iid, "state": state, "live_lease": lease})
            if iid.startswith("check.") and iid.count(".") == 1:
                self.collected.add(iid.split(".", 1)[1])
        return "ok", {"collected": sorted(report.collected),
                      "examined": report.examined}

    def _advance(self, ms: float) -> None:
        """Advance virtual time between ops.  With the supervisor on,
        run the event loop (heartbeats and supervision ticks must fire);
        otherwise a plain clock jump, byte-identical to the original."""
        if ms <= 0:
            return
        if self.supervisor is not None:
            self.world.scheduler.run_until(self.world.now + ms)
        else:
            self.world.clock.advance(ms)

    def _op_advance(self, op):
        ms = float(op.get("ms", 1.0))
        self._advance(ms)
        self.world.faults.pump()
        return "ok", round(ms, 3)

    def _op_lose_reply(self, op):
        node = op.get("node")
        if node not in SERVER_NODES:
            return "noop", None
        self.world.faults.lose_next(node, CLIENT_NODE)
        return "ok", node

    def _op_cached_get(self, op):
        if self.lease_client is None:
            return "noop", None
        key = str(op.get("key", "k0"))
        return self._attempt(self.gproxy.get, key)

    def _op_cached_burst(self, op):
        """n back-to-back reads of one key: after the first miss fills
        the cache, the rest are the grant-renewing hit hot path."""
        if self.lease_client is None:
            return "noop", None
        key = str(op.get("key", "k0"))
        n = max(2, int(op.get("n", 2)))
        outcomes = []
        for _ in range(n):
            outcome, _value = self._attempt(self.gproxy.get, key)
            outcomes.append(outcome)
        return _tally(outcomes)

    def _op_shard_incr(self, op):
        if self.space is None:
            return "noop", None
        key = str(op.get("key", "s0"))
        outcome, value = self._attempt(self.sproxy.incr, key)
        entry = self.shard_writes.setdefault(
            key, {"acked": 0, "ambiguous": 0, "shed": 0})
        if outcome == "ok":
            entry["acked"] += 1
        elif outcome == "failed:ServerBusyError":
            entry["shed"] += 1
        else:
            entry["ambiguous"] += 1
        return outcome, value

    def _op_shard_get(self, op):
        if self.space is None:
            return "noop", None
        return self._attempt(self.sproxy.get, str(op.get("key", "s0")))

    def _op_shard_move(self, op):
        """Toggle a node's ring membership: drain it (staged, fenced
        migrations of every shard it owns) or re-admit it.  Moves need
        live source and target capsules, so the whole-fleet crash guard
        keeps the op deterministic rather than half-draining."""
        if self.space is None:
            return "noop", None
        node = op.get("node")
        if node not in SERVER_NODES:
            return "noop", None
        faults = self.world.faults
        if any(faults.is_crashed(n) for n in SERVER_NODES):
            return "skipped:crashed", node
        on_ring = node in self.space.ring.nodes()
        try:
            if on_ring:
                if len(self.space.ring.nodes()) <= 1:
                    return "noop", node
                moves = self.space.rebalancer.node_left(node)
                return "ok", f"leave:{node}:{len(moves)}"
            moves = self.space.rebalancer.node_joined(self.srv[node])
            return "ok", f"join:{node}:{len(moves)}"
        except OdpError as exc:
            return f"failed:{type(exc).__name__}", node

    # -- epilogue ------------------------------------------------------------

    def heal(self) -> None:
        """End of scenario: cross every window boundary, then force a
        fully-healed network so final observations are honest.

        With the supervisor on, the event loop first runs through the
        chaos horizon plus a grace period so repairs happen through the
        platform's own detect->diagnose->repair loop (restarted nodes
        heartbeat again, revives and replacements land) — then the
        supervisor is stopped before settling, since its recurring
        events would otherwise keep the scheduler busy forever.
        """
        faults = self.world.faults
        faults.clear_lose_next()
        if self.supervisor is not None:
            grace = self.config.supervisor_grace_ms
            horizon = self.world.now
            for window in self.plan.windows:
                for edge in (getattr(window, "start_ms", None),
                             getattr(window, "end_ms", None)):
                    if edge is not None:
                        horizon = max(horizon, float(edge))
            self.world.scheduler.run_until(horizon + grace)
            faults.pump()
            self._force_heal(faults)
            self.world.scheduler.run_until(self.world.now + grace)
            self.supervisor.stop()
        self.world.settle()
        faults.pump()
        self._force_heal(faults)

    def _force_heal(self, faults) -> None:
        for node in sorted(faults.crashed_nodes):
            faults.restart_node(node)
        faults.heal_partition()
        faults.drop_probability = 0.0
        for a in _ALL_NODES:
            for b in _ALL_NODES:
                if a == b:
                    continue
                faults.heal_link(a, b)
                faults.clear_link_drop(a, b)
                faults.restore_link(a, b)

    def resolve_indoubt(self) -> List[str]:
        manager = self.domain.tx_manager
        unresolved: List[str] = []
        for tx in self.indoubt_txs:
            manager.resolve_indoubt(tx)
            unresolved.extend(p.interface_id for p in tx.indoubt)
        return sorted(set(unresolved))

    def finish(self) -> RunResult:
        if self.lease_client is not None:
            # Final observations must come from the servers, not from a
            # cache whose staleness window is still open — and the
            # group_consistency oracle compares them against the ledger.
            self.lease_client.enabled = False
        self.heal()
        overload_executions: List[Dict[str, Any]] = []
        overload_admission: Dict[str, List[Tuple[float, int, str]]] = {}
        overload_budgets: Dict[str, Dict[str, Any]] = {}
        if self.config.overload:
            # Snapshot the oracle evidence *before* the out-of-band
            # final reads below: those audits are not client traffic
            # and must neither appear in the budget ledger the volume
            # clause judges nor be shed by a still-elevated brownout.
            registry = self.app.nucleus.retry_budgets
            overload_budgets = registry.snapshot()
            registry.enabled = False
            for node in SERVER_NODES:
                gate = self.srv[node].nucleus.deadline_gate
                for entry in gate.execution_log:
                    overload_executions.append(dict(entry, node=node))
                controller = self.overload_controllers[node]
                overload_admission[node] = list(controller.events)
                if controller.brownout is not None:
                    controller.brownout.level = 0
        unresolved = self.resolve_indoubt()
        final_qos = QoS(deadline_ms=None, retries=10)

        counter_final: Dict[str, Optional[int]] = {}
        for name in self.counters:
            _, value = self._attempt(self.proxies[name].read,
                                     _qos=final_qos)
            counter_final[name] = value
        accounts_final: Dict[str, Optional[int]] = {}
        for name in self.accounts_model:
            _, value = self._attempt(self.proxies[name].balance_of,
                                     _qos=final_qos)
            accounts_final[name] = value

        shard_final: Dict[str, Optional[int]] = {}
        if self.space is not None:
            for key in sorted(self.shard_writes):
                _, value = self._attempt(self.sproxy.get, key,
                                         _qos=final_qos)
                shard_final[key] = value

        group_final: Dict[str, Optional[str]] = {}
        for key in sorted(self.group_writes):
            _, value = self._attempt(self.gproxy.get, key,
                                     _qos=final_qos)
            group_final[key] = value

        member_states: List[Dict[str, Any]] = []
        plumbing = self.domain.groups._plumbing
        for member in self.group.view.members:
            _, interface = plumbing[("check.kv", member.index)]
            implementation = interface.implementation
            state = {
                "index": member.index,
                "node": member.node,
                "alive": member.alive,
                "out_of_sync": bool(member.layer.out_of_sync),
                "applied_seq": member.applied_seq,
                "data": (dict(sorted(implementation.data.items()))
                         if implementation is not None else None),
            }
            if self.config.partitions:
                # The per-member commit ledger feeds the split_brain
                # oracle.  Only recorded in partitions mode so default
                # end states (and digests) are untouched.
                state["commits"] = [list(entry)
                                    for entry in member.layer.commit_log]
            member_states.append(state)

        relocation_probes: List[Dict[str, Any]] = []
        relocator = self.domain.relocator
        finals = dict(counter_final)
        finals.update(accounts_final)
        for name in sorted(self.locations):
            if name in self.collected:
                continue
            ref = relocator.try_lookup(f"check.{name}")
            resolved = (ref.paths[0].node
                        if ref is not None and ref.paths else None)
            relocation_probes.append({
                "obj": name,
                "expected_node": self.locations[name],
                "resolved_node": resolved,
                "final_ok": finals.get(name) is not None,
            })

        spans = [{"id": span.span_id,
                  "parent": span.parent_span_id,
                  "start": span.start_ms,
                  "end": span.end_ms}
                 for span in self.domain.tracer.spans()]

        end_state = {
            "counters": counter_final,
            "accounts": accounts_final,
            "group": group_final,
            "members": member_states,
            "collected": sorted(self.collected),
            "locations": dict(sorted(self.locations.items())),
            "clock_ms": round(self.world.now, 3),
            "messages": self.world.network.total_messages,
            "drops": self.world.faults.drops,
            "spans": len(spans),
        }
        if self.space is not None:
            report = self.space.report()
            end_state["shard"] = {
                "final": shard_final,
                "epoch": report["epoch"],
                "per_node": report["per_node"],
                "migrations": report["migrations"],
                "recoveries": report["recoveries"],
                "fenced_rejections": report["fenced_rejections"],
                "stale_hits": report["stale_hits"],
                "chases": report["chases"],
            }
        if self.lease_client is not None:
            end_state["lease"] = {
                "authority": self.domain.leases.report(),
                "client": self.lease_client.stats(),
                "reads": len(self.lease_client.read_log),
            }
        if self.supervisor is not None:
            end_state["heal"] = self.supervisor.report()
        if self.config.partitions:
            end_state["partitions"] = dict(
                self.domain.groups.partition_stats())
        if self.batcher is not None:
            end_state["perf"] = {
                "batcher": self.batcher.stats(),
                "admission": {
                    node: self.srv[node].nucleus.admission.stats()
                    for node in SERVER_NODES},
            }
        if self.config.overload:
            end_state["overload"] = {
                "admission": {
                    node: self.overload_controllers[node].class_stats()
                    for node in SERVER_NODES},
                "gates": {
                    node: self.srv[node].nucleus.deadline_gate.stats()
                    for node in SERVER_NODES},
                "budgets": self.app.nucleus.retry_budgets.totals(),
                "executions": len(overload_executions),
            }
        digest = digest_run(repr(self.plan), self.history.events,
                            end_state)
        return RunResult(
            plan=self.plan, config=self.config,
            events=self.history.events, end_state=end_state,
            digest=digest,
            counters=self.counters, counter_final=counter_final,
            accounts_model=self.accounts_model,
            accounts_final=accounts_final,
            had_indoubt=self.had_indoubt,
            indoubt_allowance=self.indoubt_allowance,
            unresolved_iids=unresolved,
            group_writes=self.group_writes, group_final=group_final,
            member_states=member_states,
            relocation_probes=relocation_probes,
            gc_observations=self.gc_observations,
            collected=sorted(self.collected),
            spans=spans,
            shard_writes=self.shard_writes,
            shard_final=shard_final,
            shard_log=(list(self.space.execution_log)
                       if self.space is not None else []),
            lease_reads=(list(self.lease_client.read_log)
                         if self.lease_client is not None else []),
            lease_writes=self.lease_writes,
            overload_executions=overload_executions,
            overload_admission=overload_admission,
            overload_budgets=overload_budgets,
            overload_budget_params=(
                self.app.nucleus.retry_budgets.ratio,
                self.app.nucleus.retry_budgets.cap),
        )


def run_plan(plan: Plan, config: Optional[CheckConfig] = None
             ) -> RunResult:
    """Execute *plan* on a fresh world and return the recorded run."""
    config = config or CheckConfig()
    with mutations.applied(*config.mutations):
        run = _Run(plan, config)
        for index, op in enumerate(plan.ops):
            run._advance(config.op_budget_ms)
            run.world.faults.pump()
            run.execute(index, op)
        return run.finish()


def run_seed(seed: int, config: Optional[CheckConfig] = None
             ) -> RunResult:
    """Generate the plan for *seed*, run it, and judge it."""
    from repro.check import oracles

    config = config or CheckConfig()
    plan = generate_plan(seed, config)
    result = run_plan(plan, config)
    result.violations = oracles.run_all(result)
    return result
