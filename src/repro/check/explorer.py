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
from itertools import permutations
from typing import Any, Dict, List, Optional, Tuple

from repro.check import mutations
from repro.check.history import History, digest_run
from repro.check.linearizable import OPS
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
    #: The client's call history on counters, kv keys and shard keys,
    #: final reads included (``History.calls``).
    calls: List[Dict[str, Any]]
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
    #: Scheduler events fired, and those fired past their due time:
    #: ``{"fired": n, "late": Scheduler.late}``.  Outside the digest.
    firings: Dict[str, Any] = field(default_factory=dict)


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
        self.accounts_model: Dict[str, int] = {}
        self.had_indoubt = False
        self.indoubt_allowance = 0
        self.indoubt_txs: list = []
        self.gc_observations: List[Dict[str, Any]] = []

        for i in range(COUNTERS):
            self._place(f"c{i}", Counter(),
                        EnvironmentConstraints())
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

    def call(self, fn, obj: str, op: str, key: Optional[str] = None,
             arg: Any = None, lag: float = 0.0,
             **kwargs) -> Tuple[str, Any]:
        """``attempt`` *fn* on *key* and *arg* (those given), recorded
        in the call history as *op* on *obj* (*lag*: see ``History``)."""
        call = self.history.invoke(obj, key, op, arg, self.world.now, lag)
        outcome, value = self.attempt(
            fn, *[part for part in (key, arg) if part is not None],
            **kwargs)
        self.history.respond(call, outcome, value, self.world.now)
        return outcome, value

    def counter_name(self, op) -> str:
        return f"c{op.get('counter', 0) % COUNTERS}"

    def written(self, obj: str) -> List[str]:
        """The keys of *obj* the plan wrote, or tried to, sorted."""
        return sorted({call["key"] for call in self.history.calls
                       if call["obj"] == obj and OPS[call["op"]][1]})

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
        return self.call(self.proxies[name].increment, name, "increment")

    def _op_read(self, op):
        name = self.counter_name(op)
        return self.call(self.proxies[name].read, name, "read")

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
        return self.call(self.gproxy.put, "kv", "put",
                         str(op.get("key", "k0")), str(op.get("value", "")))

    def _op_group_get(self, op):
        return self.call(self.gproxy.get, "kv", "get",
                         str(op.get("key", "k0")))

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
        for a, b in permutations(_ALL_NODES, 2):
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

        counter_final = {name: self.call(self.proxies[name].read, name,
                                         "read", _qos=self.final_qos)[1]
                         for name in (f"c{i}" for i in range(COUNTERS))}
        accounts_final = {name: self.attempt(self.proxies[name].balance_of,
                                             _qos=self.final_qos)[1]
                          for name in self.accounts_model}

        # The modes' own reads sit where the first mode to have any put
        # them: admission waits, hence digests, depend on the order.
        for mode in self.modes:
            mode.observe()
        group_final = {key: self.call(self.gproxy.get, "kv", "get", key,
                                      _qos=self.final_qos)[1]
                       for key in self.written("kv")}

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
        finals = {**counter_final, **accounts_final}
        for name in sorted(set(self.locations) - self.collected):
            ref = self.domain.relocator.try_lookup(f"check.{name}")
            relocation_probes.append({
                "obj": name,
                "expected_node": self.locations[name],
                "resolved_node": (ref.paths[0].node
                                  if ref is not None and ref.paths else None),
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
            calls=self.history.calls, counter_final=counter_final,
            accounts_model=self.accounts_model,
            accounts_final=accounts_final,
            had_indoubt=self.had_indoubt,
            indoubt_allowance=self.indoubt_allowance,
            unresolved_iids=unresolved,
            member_states=member_states,
            relocation_probes=relocation_probes,
            gc_observations=self.gc_observations,
            collected=sorted(self.collected),
            spans=spans, evidence=evidence,
            firings={"fired": self.world.scheduler.events_run,
                     "late": self.world.scheduler.late},
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
