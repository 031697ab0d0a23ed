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
from repro.check.modes import MODES
from repro.check.plan import (
    DEFAULT_ROWS,
    OP_BUDGET_MS,
    Plan,
    generate_plan,
)
from repro.check.workload import (
    ACCOUNTS,
    CLIENT_NODE,
    COUNTERS,
    GROUP_SIZE,
    INITIAL_BALANCE,
    REPLY_QUORUM,
    SERVER_NODES,
    Account,
    Counter,
    KvStore,
)
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
    """What one exploration varies: plan length, installed mutations,
    and one flag per check mode (:mod:`repro.check.modes` says what
    each switches on).  Topology, population, QoS and chaos budget are
    constants beside the code that owns them."""

    ops: int = 60
    #: Active platform mutations (keys of :data:`mutations.MUTATIONS`).
    mutations: Tuple[str, ...] = ()
    supervisor: bool = False
    batching: bool = False
    partitions: bool = False
    shards: bool = False
    leases: bool = False
    overload: bool = False

    def with_batching(self) -> "CheckConfig":
        return replace(self, batching=True)

    def with_partitions(self) -> "CheckConfig":
        return replace(self, partitions=True)

    def with_shards(self) -> "CheckConfig":
        return replace(self, shards=True)

    def with_leases(self) -> "CheckConfig":
        return replace(self, leases=True)

    def with_overload(self) -> "CheckConfig":
        return replace(self, overload=True)

    def with_mutations(self, *names: str) -> "CheckConfig":
        for name in names:
            if name not in mutations.MUTATIONS:
                raise ValueError(
                    f"unknown mutation {name!r}; "
                    f"known: {sorted(mutations.MUTATIONS)}")
        return replace(self, mutations=tuple(names))

    def with_supervisor(self) -> "CheckConfig":
        return replace(self, supervisor=True)


@dataclass
class RunResult:
    """Everything the oracles (and the CLI) need to judge one run."""

    plan: Plan
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
    #: mode name -> what that mode's oracle judges, for each mode the
    #: run had on (``Mode.finish`` documents each shape).
    evidence: Dict[str, Any] = field(default_factory=dict)
    violations: list = field(default_factory=list)


class _PlanAbort(Exception):
    """Deliberate client-side abort injected by ``cancel_transfer``."""


class _Run:
    """One in-flight execution of a plan (all the mutable bookkeeping).

    The run itself owns the default workload — counters, accounts, the
    replicated kv group, relocation, gc — and the hooks the enabled
    modes hang what they add on (:class:`~repro.check.modes.Mode`)."""

    #: Every binding's QoS during the plan; the final observations
    #: instead wait out whatever the healed network still needs.
    qos = QoS(deadline_ms=400.0, retries=8)
    final_qos = QoS(deadline_ms=None, retries=10)

    def __init__(self, plan: Plan, config: CheckConfig) -> None:
        self.plan = plan
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

        for i in range(COUNTERS):
            self._place(f"c{i}", Counter(),
                        EnvironmentConstraints())
            self.counters[f"c{i}"] = {"acked": 0, "ambiguous": 0,
                                      "shed": 0}
        for i in range(ACCOUNTS):
            self._place(f"a{i}", Account(INITIAL_BALANCE),
                        EnvironmentConstraints(concurrency=True))
            self.accounts_model[f"a{i}"] = INITIAL_BALANCE

        spec = ReplicationSpec(replicas=GROUP_SIZE, policy="active",
                               reply_quorum=REPLY_QUORUM)
        self.group, gref = self.domain.groups.create(
            KvStore, [self.srv[node] for node in SERVER_NODES],
            spec, group_id="check.kv")
        self.gproxy = self.binder.bind(gref, qos=self.qos)

        #: How virtual time passes between ops: a plain clock jump,
        #: unless a mode needs the event loop to run meanwhile.
        self.advance = self.world.clock.advance
        #: op kind -> handler(op) -> (outcome, detail).
        self.handlers = {kind: getattr(self, f"_op_{kind}")
                         for kind, _, _ in DEFAULT_ROWS}
        #: The enabled modes' live instances, in registry order.
        self.modes = []
        for mode in MODES:
            mode.attach(self, getattr(config, mode.name, False))

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
    def attempt(fn, *args, **kwargs) -> Tuple[str, Any]:
        """Run a proxy call; fold every outcome into (label, value)."""
        try:
            return "ok", fn(*args, **kwargs)
        except Signal as exc:
            return f"signal:{exc.name}", None
        except OdpError as exc:
            return f"failed:{type(exc).__name__}", None

    def counter_name(self, op) -> str:
        return f"c{op.get('counter', 0) % COUNTERS}"

    def _object_name(self, op) -> Optional[str]:
        name = op.get("obj")
        if name in self.locations:
            return name
        return None

    # -- op execution --------------------------------------------------------

    def execute(self, index: int, op) -> None:
        t0 = self.world.now
        outcome, detail = self.handlers[op.kind](op)
        self.history.record(index, repr(op), outcome, detail,
                            t0, self.world.now)

    def _op_invoke(self, op):
        name = self.counter_name(op)
        outcome, value = self.attempt(self.proxies[name].increment)
        self.count_increment(self.counters[name], outcome)
        return outcome, value

    @staticmethod
    def count_increment(entry: Dict[str, int], outcome: str) -> None:
        """Fold one increment's outcome into its exactly-once envelope
        (``{"acked", "ambiguous", "shed"}`` counts)."""
        if outcome == "ok":
            entry["acked"] += 1
        elif outcome == "failed:ServerBusyError":
            # The shed contract: a ServerBusyError surfacing to the
            # caller means the final attempt was rejected *before*
            # dispatch and the earlier ones definitely did not execute
            # either (an executed attempt is answered from the reply
            # cache, never shed).  Unacked, not ambiguous.
            entry["shed"] += 1
        elif outcome == "failed:InvocationExpiredError":
            # Expired at a deadline gate.  Usually definitely-not-
            # executed, but a retransmission whose original executed
            # (reply lost, cached reply already expiry-evicted) also
            # surfaces this — so it stays inside the ambiguous bound,
            # tracked separately for the overload report.
            entry["ambiguous"] += 1
            entry["expired"] = entry.get("expired", 0) + 1
        else:
            # Anything else is ambiguous: the increment may or may not
            # have executed before the failure (0-or-1 bound).
            entry["ambiguous"] += 1

    def _op_read(self, op):
        name = self.counter_name(op)
        return self.attempt(self.proxies[name].read)

    def _op_transfer(self, op, cancel: bool = False):
        src = f"a{op.get('src', 0) % ACCOUNTS}"
        dst = f"a{op.get('dst', 1) % ACCOUNTS}"
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
        outcome, _ = self.attempt(self.gproxy.put, key, value)
        self.group_writes.setdefault(key, []).append(
            (value, outcome == "ok"))
        return outcome, None

    def _op_group_get(self, op):
        key = str(op.get("key", "k0"))
        return self.attempt(self.gproxy.get, key)

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

    def _op_advance(self, op):
        ms = float(op.get("ms", 1.0))
        if ms > 0:
            self.advance(ms)
        self.world.faults.pump()
        return "ok", round(ms, 3)

    def _op_lose_reply(self, op):
        node = op.get("node")
        if node not in SERVER_NODES:
            return "noop", None
        self.world.faults.lose_next(node, CLIENT_NODE)
        return "ok", node

    # -- epilogue ------------------------------------------------------------

    def heal(self) -> None:
        """End of scenario: cross every window boundary, then force a
        fully-healed network so final observations are honest."""
        faults = self.world.faults
        faults.clear_lose_next()
        for mode in self.modes:
            mode.heal(faults)
        self.world.settle()
        faults.pump()
        self.force_heal(faults)

    def force_heal(self, faults) -> None:
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
        self.heal()
        for mode in self.modes:
            mode.settled()
        unresolved = self.resolve_indoubt()

        counter_final: Dict[str, Optional[int]] = {}
        for name in self.counters:
            _, value = self.attempt(self.proxies[name].read,
                                    _qos=self.final_qos)
            counter_final[name] = value
        accounts_final: Dict[str, Optional[int]] = {}
        for name in self.accounts_model:
            _, value = self.attempt(self.proxies[name].balance_of,
                                    _qos=self.final_qos)
            accounts_final[name] = value

        # The modes' own reads sit where the first mode to have any put
        # them: admission waits, hence digests, depend on the order.
        for mode in self.modes:
            mode.observe()
        group_final: Dict[str, Optional[str]] = {}
        for key in sorted(self.group_writes):
            _, value = self.attempt(self.gproxy.get, key,
                                    _qos=self.final_qos)
            group_final[key] = value

        member_states: List[Dict[str, Any]] = []
        plumbing = self.domain.groups._plumbing
        for member in self.group.view.members:
            _, interface = plumbing[("check.kv", member.index)]
            implementation = interface.implementation
            member_states.append({
                "index": member.index,
                "node": member.node,
                "alive": member.alive,
                "out_of_sync": bool(member.layer.out_of_sync),
                "applied_seq": member.applied_seq,
                "data": (dict(sorted(implementation.data.items()))
                         if implementation is not None else None),
            })

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
        evidence = {mode.name: mode.finish(end_state)
                    for mode in self.modes}
        digest = digest_run(repr(self.plan), self.history.events,
                            end_state)
        # Handlers and modes point back at the run; dropping them frees
        # it now instead of at the next gc pass.
        del self.handlers, self.modes
        return RunResult(
            plan=self.plan, events=self.history.events,
            end_state=end_state,
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
            spans=spans, evidence=evidence,
        )


def run_plan(plan: Plan, config: Optional[CheckConfig] = None
             ) -> RunResult:
    """Execute *plan* on a fresh world and return the recorded run."""
    config = config or CheckConfig()
    with mutations.applied(*config.mutations):
        run = _Run(plan, config)
        for index, op in enumerate(plan.ops):
            run.advance(OP_BUDGET_MS)
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
