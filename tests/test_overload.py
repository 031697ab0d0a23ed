"""Overload robustness: deadlines, retry budgets, class-aware shedding.

Covers the repro.overload subsystem end to end — the DeadlineGate's
arrival/post-queue enforcement, end-to-end deadline and priority
propagation through the client nucleus opt-in, token-ratio retry
budgets and their registry, brownout level stepping, the class-aware
admission controller's weighted monotone bounds — and, critically, the
*classification* contract: a dry retry budget is retryable-later like
a busy shed, never evidence of death, so it must not open circuit
breakers, suspect group members, or trigger shard-router failover.
"""

from __future__ import annotations

import pytest

from repro import QoS, ReplicationSpec, World
from repro.check import mutations
from repro.check.workload import ShardStore
from repro.errors import (
    InvocationExpiredError,
    RetryBudgetExhaustedError,
    ServerBusyError,
)
from repro.overload import (
    DEADLINE_KEY,
    PRIORITY_KEY,
    BrownoutController,
    DeadlineGate,
    RetryBudget,
    RetryBudgetRegistry,
    deadline_of,
    priority_of,
)
from repro.perf.admission import AdmissionController
from repro.resilience.breaker import BreakerState
from repro.sim.clock import VirtualClock
from tests.conftest import Counter, KvStore


def two_node_world(seed=3):
    world = World(seed=seed)
    world.node("org", "s")
    world.node("org", "c")
    return world, world.capsule("s", "srv"), world.capsule("c", "cli")


# ---------------------------------------------------------------------------
# Context helpers and the deadline gate
# ---------------------------------------------------------------------------

class TestContextKeys:
    def test_deadline_of_reads_the_stamped_key(self):
        assert deadline_of({}) is None
        assert deadline_of({DEADLINE_KEY: 125.5}) == 125.5

    def test_priority_defaults_and_clamps(self):
        assert priority_of({}) == 2
        assert priority_of({PRIORITY_KEY: 0}) == 0
        assert priority_of({PRIORITY_KEY: 99}) == 3
        assert priority_of({PRIORITY_KEY: -7}) == 0


class TestDeadlineGate:
    def test_expired_semantics(self):
        clock = VirtualClock()
        gate = DeadlineGate(clock)
        clock.advance(100.0)
        assert not gate.expired(None)          # no deadline: immortal
        assert not gate.expired(100.0)         # exactly at: still live
        assert not gate.expired(150.0)
        assert gate.expired(99.0)

    def test_mutation_skips_both_checks(self):
        clock = VirtualClock()
        gate = DeadlineGate(clock)
        clock.advance(100.0)
        with mutations.applied("deadline"):
            assert not gate.expired(1.0)       # hopelessly past, ignored
        assert gate.expired(1.0)

    def test_execution_log_is_opt_in(self):
        clock = VirtualClock()
        gate = DeadlineGate(clock)
        gate.note_execution("inv-1", "put", 50.0)
        assert gate.execution_log == []
        gate.record_executions = True
        clock.advance(10.0)
        gate.note_execution("inv-2", "put", 50.0)
        assert gate.execution_log == [{
            "inv_id": "inv-2", "op": "put",
            "deadline": 50.0, "executed_at": 10.0,
        }]


# ---------------------------------------------------------------------------
# Retry budgets
# ---------------------------------------------------------------------------

def _budget_params(monkeypatch, ratio, cap):
    monkeypatch.setattr(RetryBudget, "ratio", ratio)
    monkeypatch.setattr(RetryBudget, "cap", cap)


def _enforcing_registry():
    registry = RetryBudgetRegistry()
    registry.enabled = True
    return registry


class TestRetryBudget:
    def test_token_ratio_accounting(self, monkeypatch):
        _budget_params(monkeypatch, ratio=0.25, cap=2.0)
        budget = RetryBudget()
        assert budget.tokens == 2.0            # cold paths start full
        assert budget.try_spend()
        assert budget.try_spend()
        assert not budget.try_spend()          # dry
        assert budget.retries_granted == 2
        assert budget.retries_denied == 1
        for _ in range(4):                     # 4 firsts = 1 token
            budget.note_first()
        assert budget.has_budget
        assert budget.try_spend()
        assert not budget.try_spend()

    def test_cap_bounds_idle_banking(self, monkeypatch):
        _budget_params(monkeypatch, ratio=0.5, cap=3.0)
        budget = RetryBudget()
        for _ in range(100):
            budget.note_first()
        assert budget.tokens == 3.0

    def test_disabled_enforcement_always_grants_but_counts(self):
        budget = RetryBudget()
        budget.tokens = 0.0
        assert budget.try_spend(enforce=False)
        assert budget.retries_granted == 1
        assert budget.retries_denied == 0


class TestRetryBudgetRegistry:
    def test_paths_are_isolated(self, monkeypatch):
        _budget_params(monkeypatch, ratio=0.1, cap=1.0)
        registry = _enforcing_registry()
        assert registry.try_spend("n1", "invoke")
        assert not registry.try_spend("n1", "invoke")
        # A different protocol on the same node has its own headroom.
        assert registry.try_spend("n1", "group")
        assert registry.try_spend("n2", "invoke")

    def test_can_spend_peeks_without_withdrawing(self):
        registry = _enforcing_registry()
        assert registry.can_spend("n1", "lease")
        assert registry.budget("n1", "lease").retries_granted == 0
        registry.budget("n1", "lease").tokens = 0.0
        assert not registry.can_spend("n1", "lease")
        registry.enabled = False
        assert registry.can_spend("n1", "lease")  # observing-only mode

    def test_disabled_registry_observes_but_grants(self):
        registry = RetryBudgetRegistry()          # starts disabled
        registry.budget("n1", "invoke").tokens = 0.0
        for _ in range(5):
            assert registry.try_spend("n1", "invoke")
        totals = registry.totals()
        assert totals["retries_granted"] == 5
        assert totals["retries_denied"] == 0

    def test_snapshot_and_totals_shape(self):
        registry = _enforcing_registry()
        registry.note_first("n2", "invoke")
        registry.note_first("n1", "group")
        registry.try_spend("n1", "group")
        snapshot = registry.snapshot()
        assert list(snapshot) == ["n1:group", "n2:invoke"]  # sorted
        assert snapshot["n1:group"]["retries_granted"] == 1
        totals = registry.totals()
        assert totals == {"paths": 2, "first_attempts": 2,
                          "retries_granted": 1, "retries_denied": 0}


# ---------------------------------------------------------------------------
# Brownout and class-aware admission
# ---------------------------------------------------------------------------

class TestBrownoutController:
    def test_escalates_on_high_p99_once_window_fills(self):
        clock = VirtualClock()
        brownout = BrownoutController(clock, target_p99_ms=10.0,
                                      window=4)
        for _ in range(4):
            brownout.observe(100.0)
        assert brownout.level == 0             # same instant: no re-eval
        clock.advance(1.0)
        brownout.observe(100.0)
        assert brownout.level == 1
        assert brownout.escalations == 1

    def test_relaxes_once_waits_clear(self):
        clock = VirtualClock()
        brownout = BrownoutController(clock, target_p99_ms=10.0,
                                      window=4)
        brownout.level = 2
        for _ in range(4):
            brownout.observe(0.0)
        clock.advance(1.0)
        brownout.observe(0.0)                  # p99 0 <= target/2
        assert brownout.level == 1
        assert brownout.relaxations == 1

    def test_level_constant_within_one_instant(self):
        clock = VirtualClock()
        brownout = BrownoutController(clock, target_p99_ms=1.0,
                                      window=2)
        clock.advance(1.0)
        brownout.observe(50.0)
        brownout.observe(50.0)
        level_after_first_eval = brownout.level
        for _ in range(10):                    # storm at the same instant
            brownout.observe(50.0)
        assert brownout.level == level_after_first_eval


class TestClassAdmissionController:
    def _controller(self, clock, **kwargs):
        kwargs.setdefault("rate_per_s", 1000.0)
        kwargs.setdefault("burst", 1)
        kwargs.setdefault("max_queue", 8)
        return AdmissionController(clock, classes=True, **kwargs)

    def test_bounds_are_monotone_cumulative_shares(self):
        controller = self._controller(VirtualClock())
        # weights (1,2,4,8)/15 of max_queue=8.
        assert [bound for bound, _ in controller._limits] == \
            pytest.approx([8 / 15, 24 / 15, 56 / 15, 8.0])

    def test_sheds_lowest_class_first_at_the_same_depth(self):
        controller = self._controller(VirtualClock())
        controller.record_events = True
        controller.admit(priority=3)           # drains the burst token
        controller.admit(priority=3)           # queues: deficit 1
        with pytest.raises(ServerBusyError) as excinfo:
            controller.admit(priority=0)       # deficit 2 > bound 0.53
        assert excinfo.value.retryable
        controller.admit(priority=3)           # class 3 still admitted
        stats = controller.class_stats()
        assert stats["admitted"] == [0, 0, 0, 3]
        assert stats["shed"] == [1, 0, 0, 0]
        verdicts = [(p, v) for _, p, v in controller.events]
        assert verdicts == [(3, "admit"), (3, "admit"),
                            (0, "shed"), (3, "admit")]

    def test_classless_every_class_shares_the_whole_bound(self):
        controller = AdmissionController(VirtualClock(), rate_per_s=1000.0,
                                         burst=1, max_queue=1)
        controller.admit(priority=3)           # drains the burst token
        controller.admit(priority=0)           # queues: deficit 1
        with pytest.raises(ServerBusyError) as excinfo:
            controller.admit(priority=3)       # deficit 2 > bound 1
        assert excinfo.value.args[0] == (
            "server overloaded: dispatch queue at bound 1, invocation "
            "shed (retryable)")
        assert controller.class_stats()["shed"] == [0, 0, 0, 1]

    def test_brownout_level_sheds_classes_below_it(self):
        clock = VirtualClock()
        brownout = BrownoutController(clock)
        brownout.level = 2
        controller = self._controller(clock, brownout=brownout)
        with pytest.raises(ServerBusyError):
            controller.admit(priority=1)
        controller.admit(priority=2)           # at the level: admitted
        stats = controller.class_stats()
        assert stats["brownout_shed"] == 1
        assert stats["brownout_level"] == 2


# ---------------------------------------------------------------------------
# End-to-end propagation through the client nucleus opt-in
# ---------------------------------------------------------------------------

class TestDeadlinePropagation:
    def test_default_wire_carries_no_deadline(self):
        world, servers, clients = two_node_world()
        ref = servers.export(Counter())
        gate = world.nucleus("s").deadline_gate
        gate.record_executions = True
        proxy = world.binder_for(clients).bind(ref)
        proxy.increment(_qos=QoS(deadline_ms=50.0))
        assert gate.execution_log[-1]["deadline"] is None

    def test_opt_in_stamps_the_absolute_deadline(self):
        world, servers, clients = two_node_world()
        ref = servers.export(Counter())
        gate = world.nucleus("s").deadline_gate
        gate.record_executions = True
        world.nucleus("c").deadline_propagation = True
        proxy = world.binder_for(clients).bind(ref)
        issued_at = world.now
        proxy.increment(_qos=QoS(deadline_ms=50.0))
        entry = gate.execution_log[-1]
        assert entry["deadline"] == pytest.approx(issued_at + 50.0)
        assert entry["executed_at"] <= entry["deadline"]

    def test_priority_rides_the_same_opt_in(self):
        world, servers, clients = two_node_world()
        ref = servers.export(Counter())
        brownout = BrownoutController(world.clock)
        brownout.level = 3                     # only critical survives
        world.nucleus("s").admission = AdmissionController(
            world.clock, rate_per_s=1000.0, burst=4, max_queue=8,
            brownout=brownout, classes=True)
        world.nucleus("c").deadline_propagation = True
        proxy = world.binder_for(clients).bind(ref)
        assert proxy.increment(_qos=QoS(priority=3, retries=0)) == 1
        with pytest.raises(ServerBusyError):
            proxy.increment(_qos=QoS(priority=0, retries=0))

    def test_queue_wait_outliving_the_deadline_sheds_post_queue(self):
        world, servers, clients = two_node_world()
        counter = Counter()
        ref = servers.export(counter)
        nucleus = world.nucleus("s")
        nucleus.admission = AdmissionController(
            world.clock, rate_per_s=10.0, burst=1, max_queue=100)
        world.nucleus("c").deadline_propagation = True
        proxy = world.binder_for(clients).bind(ref)
        assert proxy.increment() == 1          # drains the burst token
        # The next request queues for ~100ms against a 5ms deadline:
        # admitted, then shed after the wait, before dispatch.
        with pytest.raises(InvocationExpiredError) as excinfo:
            proxy.increment(_qos=QoS(deadline_ms=5.0, retries=0))
        assert not excinfo.value.retryable     # the deadline is dead
        assert counter.value == 1              # definitely not executed
        assert nucleus.deadline_gate.stats()["expired_post_queue"] == 1


# ---------------------------------------------------------------------------
# Classification: budget exhaustion is NOT death evidence
# ---------------------------------------------------------------------------

class TestBudgetExhaustionClassification:
    def test_transport_surfaces_retryable_and_feeds_no_breaker(self):
        world, servers, clients = two_node_world()
        counter = Counter()
        ref = servers.export(counter)
        world.nucleus("s").admission = AdmissionController(
            world.clock, rate_per_s=10.0, burst=1, max_queue=0)
        proxy = world.binder_for(clients).bind(ref)
        assert proxy.increment() == 1
        registry = world.nucleus("c").retry_budgets
        registry.enabled = True
        registry.budget("s", "invoke").tokens = 0.0
        # Busy shed, then the retransmission is suppressed by the dry
        # budget — surfaced as retryable-later, not as a path failure.
        with pytest.raises(RetryBudgetExhaustedError) as excinfo:
            proxy.increment()
        assert excinfo.value.retryable
        assert counter.value == 1
        breakers = world.nucleus("c").breakers._breakers
        assert all(b.state == BreakerState.CLOSED
                   for b in breakers.values())
        # Retryable-later means exactly that: once the bucket and the
        # budget refill, the same path serves again, never having been
        # marked dead in between.
        world.clock.advance(1000.0)
        registry.budget("s", "invoke").tokens = 2.0
        assert proxy.increment() == 2
        assert all(b.state == BreakerState.CLOSED
                   for b in breakers.values())

    def test_group_budget_exhaustion_suspects_nobody(self):
        world = World(seed=7)
        for name in ("n1", "n2", "n3", "client-node"):
            world.node("org", name)
        domain = world.domain("org")
        capsules = [world.capsule(n, "srv") for n in ("n1", "n2", "n3")]
        clients = world.capsule("client-node", "clients")
        group, gref = domain.groups.create(
            KvStore, capsules,
            ReplicationSpec(replicas=3, policy="active", reply_quorum=2),
            group_id="ob.kv")
        proxy = world.binder_for(clients).bind(gref)
        proxy.put("k", "v0")
        registry = world.nucleus("client-node").retry_budgets
        registry.enabled = True
        registry.budget("n1", "group").tokens = 0.0
        # Strand the sequencer with the client: writes reach n1 but the
        # quorum does not, so every attempt rolls back with NoQuorum.
        # The dry budget must cut the client's retry storm without
        # suspecting the sequencer — quorum loss plus budget denial is
        # not a death certificate for the member being retried.  (The
        # sequencer's own replication fan-out may suspect unreachable
        # *followers*; that is genuine unreachability evidence and not
        # what this pin is about.)
        world.partition(["n1", "client-node"], ["n2", "n3"])
        with pytest.raises(RetryBudgetExhaustedError) as excinfo:
            proxy.put("k", "v1")
        assert excinfo.value.retryable
        assert group.view.sequencer.node == "n1"   # no client failover
        assert group.view.sequencer.alive          # never suspected
        assert registry.budget("n1", "group").retries_denied == 1
        world.faults.heal_partition()
        for member in group.view.members:
            if not member.alive:
                domain.groups.revive("ob.kv", member.index)
        registry.budget("n1", "group").tokens = 5.0
        proxy.put("k", "v2")
        assert proxy.get("k") == "v2"
        assert all(m.alive for m in group.view.members)

    def test_shard_budget_exhaustion_neither_chases_nor_refreshes(self):
        world = World(seed=5)
        for name in ("n1", "n2", "n3", "cli"):
            world.node("d", name)
        capsules = [world.capsule(n, "srv") for n in ("n1", "n2", "n3")]
        app = world.capsule("cli", "app")
        domain = world.domain("d")
        space = domain.shards.create("grid", ShardStore, capsules,
                                     shards=8)
        proxy = space.bind(app)
        victim = space.owners[0]
        key = next(f"z{i}" for i in range(10_000)
                   if space.owner_of(f"z{i}") == victim)
        index = space.shard_of(key)
        assert proxy.incr(key) == 1
        stale_app = world.capsule("cli", "app2")
        stale_proxy = space.bind(stale_app)
        stale_router = stale_proxy._channel.layers[0]
        # Crash-recover the owner so the stale route hits a fenced
        # zombie record (WrongShardError: a chase would normally fix it).
        world.crash_node(victim)
        space.rebalancer.node_left(victim, dead=True,
                                   down_since=world.now)
        world.restart_node(victim)
        registry = world.nucleus("cli").retry_budgets
        registry.enabled = True
        registry.budget(victim, "shard").tokens = 0.0
        stale_epoch = stale_router.view.epoch
        with pytest.raises(RetryBudgetExhaustedError):
            stale_proxy.incr(key)
        # No failover happened on the budget's say-so: the router kept
        # its (stale) view, chased nothing, and no replica executed.
        assert stale_router.chases == 0
        assert stale_router.view.epoch == stale_epoch
        new_owner = space.owners[index]
        owner_data = space.capsules[new_owner].interfaces[
            space.shard_id(index)].implementation.data
        assert owner_data.get(key) == 1
        # With budget restored the chase completes exactly once.
        registry.budget(victim, "shard").tokens = 5.0
        assert stale_proxy.incr(key) == 2
        assert stale_router.view.epoch == space.epoch


# ---------------------------------------------------------------------------
# The lease cache treats proactive renewals as optional work
# ---------------------------------------------------------------------------

class TestLeaseRenewalBudget:
    def test_dry_budget_skips_renewal_instead_of_spending(self):
        world = World(seed=9)
        for name in ("n1", "cli"):
            world.node("org", name)
        srv = world.capsule("n1", "srv")
        app = world.capsule("cli", "app")
        domain = world.domain("org")
        ref = srv.export(KvStore(), interface_id="lease.kv")
        domain.leases.register("lease.kv", ttl_ms=1000.0)
        client = domain.leases.attach_client(app.nucleus)
        proxy = world.binder_for(app).bind(ref)
        proxy.put("k", "v1")
        assert proxy.get("k") == "v1"          # miss -> fill + grant
        assert proxy.get("k") == "v1"          # hit, grant fresh
        registry = app.nucleus.retry_budgets
        registry.enabled = True
        registry.budget(domain.leases.home_node(),
                        "lease").tokens = 0.0
        world.clock.advance(600.0)             # past the half-life
        # Still within the grant: the hit is served, but the proactive
        # renewal is skipped instead of spending a token the path's
        # real retries might need.
        assert proxy.get("k") == "v1"
        assert client.renewals_skipped == 1
        assert client.stats()["renewals_skipped"] == 1
