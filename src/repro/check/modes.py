"""Check modes: the one table of what each mode flag switches on.

A mode is a :class:`Mode` subclass in the ordered registry
:data:`MODES`.  Plan generation, the explorer, the oracle catalogue and
the CLI loop over the registry and name no mode; a new mode is one
subclass, one :func:`register` call and its ``CheckConfig`` flag.

Registry order is behaviour: rows and window kinds are appended, and
worlds set up, in it, and a plan is a pure function of (seed, config).
A mode registered *last* leaves every table a prefix of its own and
every lower window roll unchanged, so the pinned plans and digests
survive it; registered anywhere else, they move.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro.check import oracles
from repro.check.oracles import Violation
from repro.check.workload import (
    CLIENT_NODE,
    COUNTERS,
    GROUP_SIZE,
    KEYS,
    REPLY_QUORUM,
    SERVER_NODES,
    ShardStore,
)
from repro.comp.invocation import QoS
from repro.errors import OdpError
from repro.net.fault import AsymPartitionWindow, PartitionWindow, StallWindow
from repro.overload import BrownoutController, RetryBudget
from repro.perf import AdmissionController, BatchClient, BatchPolicy


def _noop(run, op):
    return "noop", None


def _tally(outcomes: List[str]) -> Tuple[str, str]:
    """A burst's history entry: ``ok`` only when every member was, and
    the per-outcome counts as a label (``okx3,failed:…x1``)."""
    summary = Counter(outcomes)
    label = ",".join(f"{key}x{summary[key]}" for key in sorted(summary))
    return ("ok" if set(outcomes) == {"ok"} else "mixed"), label


def _increments(least: int):
    """``n`` (at least *least*) back-to-back increments of the op's
    counter: what a burst kind degrades to while its mode is off (*qos*
    None: the binding's own)."""
    def handler(run, op, qos=None):
        name = run.counter_name(op)
        return _tally([
            run.call(run.proxies[name].increment, name, "increment",
                     _qos=qos)[0]
            for _ in range(max(least, int(op.get("n", least))))])
    return handler


class Mode:
    """What one mode flag adds.  The class attributes are data the
    package iterates; an instance is one run's set-up of the mode
    (``__init__``, with the default workload already placed)."""

    #: The ``CheckConfig`` flag, and ``--<name>`` on the CLI.
    name = ""
    #: The CLI flag's help text.
    help = ""
    #: Op-table rows ``(kind, weight, draw(rng, index) -> params)``.
    #: Each kind is handled by this instance's ``op_<kind>(op)``.
    rows: tuple = ()
    #: kind -> handler(run, op) standing in while the mode is off, so a
    #: pinned plan runs under any config; kinds not named are no-ops.
    off: Dict[str, Callable] = {}
    #: Chaos-window kinds ``(lo, hi, build(rng, start_ms, end_ms))``: a
    #: window lasting between ``lo`` and ``hi`` of the plan's horizon.
    windows: tuple = ()
    #: ``oracle(result, evidence) -> [Violation]``, catalogued under its
    #: ``__name__`` and run on the evidence :meth:`finish` returned.
    oracle: Optional[Callable] = None

    def __init__(self, run) -> None:
        self.run = run

    @classmethod
    def attach(cls, run, on: bool) -> None:
        """Set the mode up in *run* if it is on, and route its op kinds
        to the live instance or to their stand-ins."""
        if on:
            run.modes.append(cls(run))
        for kind, _, _ in cls.rows:
            run.handlers[kind] = (
                getattr(run.modes[-1], f"op_{kind}") if on
                else partial(cls.off.get(kind, _noop), run))

    def heal(self, faults) -> None:
        """Chaos is over and nothing is force-healed yet."""

    def settled(self) -> None:
        """The network is healed; the out-of-band final reads follow."""

    def observe(self) -> None:
        """Take the mode's own out-of-band final reads."""

    def finish(self, end_state: Dict[str, Any]) -> Any:
        """Add the mode's fragment to *end_state* (hence to the digest)
        and return the evidence its oracle judges."""

    @classmethod
    def judge(cls, result) -> List[Violation]:
        """The catalogue entry: the oracle, on runs with the mode on."""
        if cls.name not in result.evidence:
            return []
        return cls.oracle(result, result.evidence[cls.name])


#: Every mode, in registry order (see the module docstring).
MODES: List[Type[Mode]] = []


def register(mode: Type[Mode]) -> None:
    """Append *mode* to the registry and catalogue its oracle."""
    MODES.append(mode)
    if mode.oracle is not None:
        oracles.ORACLES[mode.oracle.__name__] = mode.judge


def unregister(mode: Type[Mode]) -> None:
    MODES.remove(mode)
    if mode.oracle is not None:
        del oracles.ORACLES[mode.oracle.__name__]


def enabled(config) -> List[Type[Mode]]:
    """The registered modes whose flag is set on *config*."""
    return [mode for mode in MODES if getattr(config, mode.name, False)]


# -- supervisor -------------------------------------------------------

def self_heal(result, report) -> List[Violation]:
    """With the supervisor on, chaos must not leave the group degraded.

    After the heal epilogue (every node restarted, links healed, plus a
    grace period with the supervisor still running) the replica group
    must be back at full replication factor with every live member in
    sync — repaired by the supervisor's own detect->diagnose->repair
    loop, not by test fiat.  The detector must also have observed real
    heartbeats, so a pass cannot be vacuous.
    """
    violations = []
    if report["detector"]["heartbeats_observed"] == 0:
        violations.append(Violation(
            "self_heal", "the failure detector observed no heartbeats "
                         "(supervision was vacuous)"))
    live = [m for m in result.member_states if m["alive"]]
    if len(live) < GROUP_SIZE:
        violations.append(Violation(
            "self_heal",
            f"group has {len(live)} live member(s) after heal + grace, "
            f"needs {GROUP_SIZE}"))
    for member in live:
        if member["out_of_sync"]:
            violations.append(Violation(
                "self_heal",
                f"member {member['index']} is live but still awaiting "
                f"state transfer after heal + grace"))
    return violations


class Supervisor(Mode):
    name = "supervisor"
    help = ("run the self-healing supervisor (repro.heal) during every "
            "plan; the self_heal oracle then requires groups to regain "
            "full replication factor")
    oracle = staticmethod(self_heal)
    #: Virtual ms granted after chaos ends for the supervisor to finish
    #: repairs before final observations are taken.
    GRACE_MS = 500.0

    def __init__(self, run) -> None:
        super().__init__(run)
        self.supervisor = run.domain.supervisor
        self.supervisor.start()
        # Heartbeats and supervision ticks must fire between ops: run
        # the event loop where the default run just jumps the clock.
        world = run.world
        run.advance = lambda ms: world.scheduler.run_until(world.now + ms)

    def heal(self, faults) -> None:
        """Run the event loop through the chaos horizon plus a grace
        period so repairs happen through the platform's own
        detect->diagnose->repair loop (restarted nodes heartbeat again,
        revives and replacements land) — then stop the supervisor
        before the run settles, since its recurring events would
        otherwise keep the scheduler busy forever."""
        world = self.run.world
        horizon = max([world.now] + [
            float(edge) for window in self.run.plan.windows
            for edge in (window.start_ms, window.end_ms) if edge is not None])
        world.scheduler.run_until(horizon + self.GRACE_MS)
        faults.pump()
        self.run.force_heal(faults)
        world.scheduler.run_until(world.now + self.GRACE_MS)
        self.supervisor.stop()

    def finish(self, end_state):
        end_state["heal"] = self.supervisor.report()
        return end_state["heal"]


# -- batching ---------------------------------------------------------

class Batching(Mode):
    name = "batching"
    help = ("drive part of the workload through the high-throughput "
            "layer (repro.perf): batch_burst ops via a BatchClient, "
            "with token-bucket admission control shedding overload on "
            "every server")
    rows = (
        ("batch_burst", 10,
         lambda rng, index: {"counter": rng.randint(0, COUNTERS - 1),
                             "n": rng.randint(2, 10)}),
    )
    off = {"batch_burst": _increments(2)}

    def __init__(self, run) -> None:
        super().__init__(run)
        # Sized against the plan shape: ~12 tokens refill per op-budget
        # slot, burst below the largest generated burst, bound low
        # enough that back-to-back bursts shed — the shed path must
        # actually run, or its oracle handling is vacuous.
        for node in SERVER_NODES:
            run.srv[node].nucleus.admission = AdmissionController(
                run.world.clock, rate_per_s=500.0, burst=4, max_queue=3)
        self.batcher = BatchClient(
            run.app, BatchPolicy(max_batch=8, linger_ms=0.5), qos=run.qos)

    def op_batch_burst(self, op):
        """n concurrent increments of one counter, coalesced: all are
        invoked before any responds."""
        run = self.run
        name = run.counter_name(op)
        ref = run.proxies[name]._ref
        calls = [(run.history.invoke(name, None, "increment",
                                     now=run.world.now),
                  self.batcher.call(ref, "increment"))
                 for _ in range(max(2, int(op.get("n", 2))))]
        # Let the linger timer fire (size-triggered flushes have
        # already gone out), then take each member's outcome.
        run.world.scheduler.run_until(
            run.world.now + self.batcher.policy.linger_ms + 0.01)
        self.batcher.flush()
        outcomes = []
        for call, future in calls:
            outcome, value = run.attempt(future.result)
            run.history.respond(call, outcome, value, run.world.now)
            outcomes.append(outcome)
        return _tally(outcomes)

    def finish(self, end_state):
        end_state["perf"] = {
            "batcher": self.batcher.stats(),
            "admission": {
                node: self.run.srv[node].nucleus.admission.stats()
                for node in SERVER_NODES},
        }


# -- partitions -------------------------------------------------------

def _symmetric_split(rng, start, end):
    """One server (sometimes with the client node) against the rest."""
    side_a = [rng.choice(SERVER_NODES)]
    if rng.chance(0.5):
        side_a.append(CLIENT_NODE)
    side_b = [n for n in SERVER_NODES + (CLIENT_NODE,)
              if n not in side_a]
    return PartitionWindow((tuple(sorted(side_a)), tuple(sorted(side_b))),
                           start, end)


def _one_way_loss(rng, start, end):
    """A server whose egress to the other servers is blocked while
    their replies still reach it."""
    source = rng.choice(SERVER_NODES)
    rest = tuple(n for n in SERVER_NODES if n != source)
    return AsymPartitionWindow((source,), rest, start, end)


def split_brain(result, ledgers) -> List[Violation]:
    """No write commits without quorum; no two members diverge at a seq.

    Judged against the per-member commit ledgers.  Each ledger entry is
    ``(seq, view, acks, digest)`` — ``acks`` is the coordinator's own
    count (``None`` on relay-appliers, which only learn the write, not
    the tally).  Two clauses:

    * *Unsafe commit*: a coordinator retained a ledger entry whose ack
      count is below the reply quorum.  The quorum barrier rolls such
      writes back, so any surviving entry means a minority side
      committed alone — the split-brain write the barrier exists to
      prevent.
    * *Divergence*: two members hold a committed entry at the same
      sequence number with different write digests.  Since sequence
      numbers are burned (never reused) and the ledger survives state
      transfer only on the member that applied the write, this is two
      sides of a partition each deciding the same slot differently.
    """
    violations = []
    by_seq: Dict[int, List] = {}
    for index, commits in ledgers:
        for seq, view, acks, digest in commits:
            if acks is not None and acks < REPLY_QUORUM:
                violations.append(Violation(
                    "split_brain",
                    f"member {index} committed seq {seq} (view {view}) "
                    f"with only {acks} ack(s), quorum is {REPLY_QUORUM}"))
            by_seq.setdefault(seq, []).append((index, view, digest))
    for seq in sorted(by_seq):
        digests = {digest for _, _, digest in by_seq[seq]}
        if len(digests) > 1:
            detail = ", ".join(
                f"member {index} (view {view}): {digest!r}"
                for index, view, digest in by_seq[seq])
            violations.append(Violation(
                "split_brain",
                f"divergent commits at seq {seq}: {detail}"))
    return violations


class Partitions(Mode):
    name = "partitions"
    help = ("widen chaos with symmetric and asymmetric network "
            "partition windows and record per-member commit ledgers; "
            "the split_brain oracle then checks no write ever commits "
            "without quorum and no two members diverge at a sequence "
            "number")
    windows = ((0.05, 0.25, _symmetric_split), (0.05, 0.25, _one_way_loss))
    oracle = staticmethod(split_brain)

    def finish(self, end_state):
        members = self.run.group.view.members
        for state, member in zip(end_state["members"], members):
            state["commits"] = [list(entry)
                                for entry in member.layer.commit_log]
        end_state["partitions"] = dict(
            self.run.domain.groups.partition_stats())
        return [(state["index"], state["commits"])
                for state in end_state["members"]]


# -- shards -----------------------------------------------------------

#: Wide enough to spread over many shards, small enough that most keys
#: see several writes (a history to linearize rather than a sea of
#: one-shot keys).
_SHARD_KEYS = ("s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8",
               "s9")


def _shard_key(rng, index):
    return {"key": rng.choice(_SHARD_KEYS)}


def shard_routing(result, evidence) -> List[Violation]:
    """Every shard write ran on the epoch-current owner, once, by the
    shard fences' write-execution log (what each key returned to the
    client is ``linearizable``'s to judge).  Two clauses:

    * *No double dispatch*: no invocation id appears twice in the log.
      Retransmissions are answered from the reply cache before dispatch
      (the dedup window travels with graceful moves), so a second log
      entry means the same write reached two object incarnations.
    * *Owner of record*: every logged write was dispatched on the node
      the space's ownership table named at that moment.  A stale router
      is allowed through only once its chase lands on the real owner;
      an entry with ``node != owner`` means a fence let a misrouted
      write execute.
    """
    violations = []
    executed: Dict[str, str] = {}
    for entry in evidence:
        inv_id = entry["inv_id"]
        if inv_id in executed:
            violations.append(Violation(
                "shard_routing",
                f"invocation {inv_id} dispatched twice (shard "
                f"{entry['shard']}: first on {executed[inv_id]!r}, "
                f"again on {entry['node']!r})"))
        else:
            executed[inv_id] = entry["node"]
        if entry["node"] != entry["owner"]:
            violations.append(Violation(
                "shard_routing",
                f"write {inv_id} on shard {entry['shard']} executed "
                f"by {entry['node']!r} but the owner of record was "
                f"{entry['owner']!r}"))
    return violations


class Shards(Mode):
    name = "shards"
    help = ("stand up a sharded object space (repro.shard) over the "
            "server nodes: keyed ops route through the consistent-hash "
            "ring, shard_move ops drain/re-admit nodes mid-traffic; the "
            "shard_routing oracle then requires every write to execute "
            "on the epoch-current owner, once")
    rows = (
        ("shard_incr", 16, _shard_key),
        ("shard_get", 6, _shard_key),
        ("shard_move", 5,
         lambda rng, index: {"node": rng.choice(SERVER_NODES)}),
    )
    oracle = staticmethod(shard_routing)
    SHARDS = 8

    def __init__(self, run) -> None:
        super().__init__(run)
        self.space = run.domain.shards.create(
            "check.grid", ShardStore,
            [run.srv[node] for node in SERVER_NODES], shards=self.SHARDS)
        self.space.record_executions = True
        self.proxy = self.space.bind(run.app, qos=run.qos)

    def op_shard_incr(self, op):
        return self.run.call(self.proxy.incr, "grid", "increment",
                             str(op.get("key", "s0")))

    def op_shard_get(self, op):
        return self.run.call(self.proxy.get, "grid", "read",
                             str(op.get("key", "s0")))

    def op_shard_move(self, op):
        """Toggle a node's ring membership: drain it (staged, fenced
        migrations of every shard it owns) or re-admit it.  Moves need
        live source and target capsules, so the whole-fleet crash guard
        keeps the op deterministic rather than half-draining."""
        node = op.get("node")
        if node not in SERVER_NODES:
            return "noop", None
        faults = self.run.world.faults
        if any(faults.is_crashed(n) for n in SERVER_NODES):
            return "skipped:crashed", node
        try:
            if node in self.space.ring.nodes():
                if len(self.space.ring.nodes()) <= 1:
                    return "noop", node
                moves = self.space.rebalancer.node_left(node)
                return "ok", f"leave:{node}:{len(moves)}"
            moves = self.space.rebalancer.node_joined(self.run.srv[node])
            return "ok", f"join:{node}:{len(moves)}"
        except OdpError as exc:
            return f"failed:{type(exc).__name__}", node

    def observe(self) -> None:
        run = self.run
        self.final = {key: run.call(self.proxy.get, "grid", "read", key,
                                    _qos=run.final_qos)[1]
                      for key in run.written("grid")}

    def finish(self, end_state):
        report = self.space.report()
        end_state["shard"] = dict(
            {name: report[name] for name in (
                "epoch", "per_node", "migrations", "recoveries",
                "fenced_rejections", "stale_hits", "chases")},
            final=self.final)
        # The fences' write-execution log: one entry per dispatched
        # non-readonly shard invocation — {inv_id, op, shard, node,
        # owner, epoch}.
        return list(self.space.execution_log)


# -- leases -----------------------------------------------------------

class Leases(Mode):
    name = "leases"
    help = ("promote the replicated kv interface to cached mode "
            "(repro.lease): read-heavy cached_get/cached_burst ops run "
            "through a lease-caching client with follower reads; the "
            "linearizable oracle then judges each such read against "
            "the state at some instant at most the lease TTL before it")
    rows = (
        ("cached_get", 48, lambda rng, index: {"key": rng.choice(KEYS)}),
        # n reads of one key — the cache-hit hot path
        ("cached_burst", 16,
         lambda rng, index: {"key": rng.choice(KEYS),
                             "n": rng.randint(3, 8)}),
    )
    #: Lease TTL — the lag Δ each lease read carries into the call
    #: history.  Long enough that a busy reader's half-life renewals
    #: outlast the typical clock advance between ops (so leases stay
    #: continuously held and broken invalidation is *observable* as
    #: staleness), short enough that plans still see grants lapse across
    #: the big jumps.
    TTL_MS = 600.0

    def __init__(self, run) -> None:
        super().__init__(run)
        authority = run.domain.leases
        authority.default_ttl_ms = self.TTL_MS
        authority.register("check.kv", ttl_ms=self.TTL_MS)
        self.client = authority.attach_client(run.app.nucleus)
        # The cache may serve a group_get too: like a cached_get, it
        # joins the call history with the TTL as its lag.
        run.handlers["group_get"] = self.op_cached_get
        # Reads the cache misses are spread over the live replicas
        # (bounded-staleness follower reads) instead of always hitting
        # the sequencer.
        for layer in run.gproxy._channel.layers:
            if getattr(layer, "name", "") == "replication":
                layer.follower_reads = True

    def _get(self, key: str):
        return self.run.call(self.run.gproxy.get, "kv", "get", key,
                             lag=self.TTL_MS)

    def op_cached_get(self, op):
        return self._get(str(op.get("key", "k0")))

    def op_cached_burst(self, op):
        """n back-to-back reads of one key: after the first miss fills
        the cache, the rest are the grant-renewing hit hot path."""
        key = str(op.get("key", "k0"))
        return _tally([self._get(key)[0]
                       for _ in range(max(2, int(op.get("n", 2))))])

    def settled(self) -> None:
        # Final observations must come from the servers, not from a
        # cache whose staleness window is still open: they join the
        # call history with no lag.
        self.client.enabled = False

    def finish(self, end_state):
        end_state["lease"] = {
            "authority": self.run.domain.leases.report(),
            "client": self.client.stats(),
            "reads": sum(1 for call in self.run.history.calls
                         if call["lag"] and call["outcome"] == "ok"),
        }


# -- overload ---------------------------------------------------------

def _stall(rng, start, end):
    """Compute stall: the node keeps answering, slowly — queues build
    behind the inflated dispatch charges, deadlines die in them, and
    retry amplification starts (benchmark C26's trigger, randomized)."""
    return StallWindow(rng.choice(SERVER_NODES), start, end,
                       factor=round(rng.uniform(80.0, 400.0), 3))


def overload_safety(result, evidence) -> List[Violation]:
    """Shed or expired work never executes; retries stay in budget;
    shedding never inverts priority.

    Three clauses:

    * *No execution past deadline*: the deadline gates log every
      dispatch attempt with the propagated deadline it carried; an
      entry whose ``executed_at`` exceeds its deadline means a gate let
      dead work start — what the ``deadline`` mutation permits.  The
      log holds attempts, not executions: an id logged on a moved
      object's old node, which refused it as stale, is logged again
      where it ran (``DeadlineGate.record_executions``).
    * *Retry volume within budget*: per (node, protocol) path, granted
      retries can never exceed the budget's opening balance plus the
      ratio-deposit of every first attempt — the cap on retry
      amplification that keeps a stall from going metastable.
    * *No priority inversion*: within one virtual instant, once the
      admission controller shed a request of class ``p``, no request of
      a class below ``p`` may be admitted later in that same instant
      (bounds are monotone in class and the token deficit only grows
      while the clock stands still).
    """
    violations = []
    for entry in evidence["executions"]:
        deadline = entry["deadline"]
        if deadline is None:
            continue
        late = entry["executed_at"] - deadline
        if late > 1e-6:
            violations.append(Violation(
                "overload_safety",
                f"invocation {entry['inv_id']} ({entry['op']}) started "
                f"executing on {entry['node']} at "
                f"t={round(entry['executed_at'], 3)}, "
                f"{round(late, 3)}ms past its propagated deadline "
                f"{round(deadline, 3)} — expired work must be shed, "
                f"never dispatched"))
    ratio, cap = RetryBudget.ratio, RetryBudget.cap
    for path in sorted(evidence["budgets"]):
        stats = evidence["budgets"][path]
        allowed = cap + ratio * stats["first_attempts"]
        if stats["retries_granted"] > allowed + 1e-6:
            violations.append(Violation(
                "overload_safety",
                f"path {path}: {stats['retries_granted']} retries "
                f"granted exceeds the budget bound "
                f"{round(allowed, 3)} (cap {cap} + {ratio} x "
                f"{stats['first_attempts']} first attempts)"))
    for node in sorted(evidence["admission"]):
        instant = None
        worst_shed = -1
        for t, priority, verdict in evidence["admission"][node]:
            if instant is None or abs(t - instant) > 1e-9:
                instant = t
                worst_shed = -1
            if verdict == "shed":
                worst_shed = max(worst_shed, priority)
            elif priority < worst_shed:
                violations.append(Violation(
                    "overload_safety",
                    f"priority inversion on {node} at t={round(t, 3)}: "
                    f"class {priority} admitted after class "
                    f"{worst_shed} was shed in the same virtual "
                    f"instant"))
    return violations


class Overload(Mode):
    name = "overload"
    help = ("run the overload-robustness stack (repro.overload): the "
            "client propagates deadlines and priorities end to end and "
            "enforces retry budgets, servers shed class-aware with "
            "brownout, and plans gain prioritized tight-deadline ops "
            "plus compute-stall windows; the overload_safety oracle "
            "then requires that expired work never executes, retry "
            "volume stays within budget, and shedding never inverts "
            "priority")
    rows = (
        ("prio_invoke", 22,
         lambda rng, index: {"counter": rng.randint(0, COUNTERS - 1),
                             "prio": rng.randint(0, 3),
                             "tier": rng.randint(0, 2),
                             "n": rng.randint(1, 4)}),
    )
    off = {"prio_invoke": _increments(1)}
    windows = ((0.05, 0.20, _stall),)
    oracle = staticmethod(overload_safety)
    #: Deadline tiers (ms) for ``prio_invoke``: the tight tiers expire
    #: for real under stall/gray windows and admission queue waits, the
    #: loose one mostly survives — so both the shed path and the happy
    #: path run.
    TIERS = (2.5, 30.0, 400.0)

    def __init__(self, run) -> None:
        super().__init__(run)
        client = run.app.nucleus
        client.deadline_propagation = True
        client.retry_budgets.enabled = True
        # Sized against the plan shape: the refill (~0.6 tokens per
        # op-budget slot) runs *below* a node's typical demand, so
        # deficits really form — queue waits long enough to kill the
        # tight deadline tiers post-queue, class-0/1 sheds when the
        # deficit crosses their bounds, and brownout steps when the
        # waits of admitted work blow the target.
        self.controllers: Dict[str, Any] = {}
        for node in SERVER_NODES:
            nucleus = run.srv[node].nucleus
            controller = AdmissionController(
                run.world.clock, rate_per_s=24.0, burst=3, max_queue=8,
                brownout=BrownoutController(run.world.clock,
                                            target_p99_ms=20.0,
                                            window=16),
                classes=True)
            controller.record_events = True
            nucleus.admission = controller
            nucleus.deadline_gate.record_executions = True
            self.controllers[node] = controller

    def op_prio_invoke(self, op):
        """``n`` back-to-back increments carrying an explicit priority
        class and a tight propagated-deadline tier.  The burst is the
        point: back-to-back arrivals outrun the admission refill, so
        the op itself builds the deficit that sheds its low classes
        and kills its tight deadlines in the queue."""
        tier = self.TIERS[op.get("tier", 0) % len(self.TIERS)]
        return self.off["prio_invoke"](self.run, op, QoS(
            deadline_ms=tier, retries=self.run.qos.retries,
            priority=int(op.get("prio", 2)) % 4))

    def settled(self) -> None:
        """Snapshot the oracle evidence *before* the out-of-band final
        reads: those audits are not client traffic and must neither
        appear in the budget ledger the volume clause judges nor be
        shed by a still-elevated brownout."""
        registry = self.run.app.nucleus.retry_budgets
        self.snapshot = {
            # The deadline gates' logs: every dispatch attempt with the
            # deadline it carried and the node it was attempted on.
            "executions": [
                dict(entry, node=node) for node in SERVER_NODES
                for entry in
                self.run.srv[node].nucleus.deadline_gate.execution_log],
            # node -> ordered [(t, priority, verdict)] admission events.
            "admission": {node: list(self.controllers[node].events)
                          for node in SERVER_NODES},
            # "node:protocol" -> retry-budget stats.
            "budgets": registry.snapshot(),
        }
        registry.enabled = False
        for controller in self.controllers.values():
            controller.brownout.level = 0

    def finish(self, end_state):
        run = self.run
        end_state["overload"] = {
            "admission": {node: self.controllers[node].class_stats()
                          for node in SERVER_NODES},
            "gates": {node: run.srv[node].nucleus.deadline_gate.stats()
                      for node in SERVER_NODES},
            "budgets": run.app.nucleus.retry_budgets.totals(),
            "executions": len(self.snapshot["executions"]),
        }
        return self.snapshot


# The order the pinned digests were taken under: rows were appended
# batching -> shards -> leases -> overload, window kinds partitions ->
# overload, and the shard space stands before the supervisor starts.
for _mode in (Batching, Shards, Supervisor, Partitions, Leases, Overload):
    register(_mode)
