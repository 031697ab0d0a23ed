"""The retry kernel (repro.resilience.retry): the classification table
tested once, as data, and the monitor counters every retrying site
reports pinned to the values the per-site loops produced before they
shared one gate."""

from __future__ import annotations

import pytest

from repro import QoS, ReplicationSpec, World
from repro import errors
from repro.check.workload import ShardStore
from repro.mgmt.monitor import TransparencyMonitor
from repro.perf.admission import AdmissionController
from repro.perf.batching import BatchClient
from repro.resilience.retry import (
    RULES,
    RetryGate,
    RetryPolicy,
    Verdict,
    classify,
)
from tests.conftest import Counter, KvStore, with_paths


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------

#: error class -> (verdict, feeds the breaker, feeds group suspicion)
EXPECTED = [
    (errors.MessageLostError, Verdict.RETRY_HERE, False, False),
    (errors.NodeUnreachableError, Verdict.NEXT_TARGET, True, True),
    (errors.MembershipError, Verdict.NEXT_TARGET, False, True),
    (errors.ServerBusyError, Verdict.RETRY_LATER, False, False),
    (errors.EpochFencedError, Verdict.REFRESH, False, False),
    (errors.WrongShardError, Verdict.REFRESH, False, False),
    (errors.NoQuorumError, Verdict.SAME_VIEW, False, False),
    (errors.RetryBudgetExhaustedError, Verdict.STOP, False, False),
    (errors.InvocationExpiredError, Verdict.STOP, False, False),
    (errors.DeadlineExceededError, Verdict.STOP, False, False),
    # No row of their own: everything else stops.
    (errors.ProtocolMismatchError, Verdict.STOP, False, False),
    (errors.StaleReferenceError, Verdict.STOP, False, False),
    (errors.GroupUnavailableError, Verdict.STOP, False, False),
    (errors.ServerFaultError, Verdict.STOP, False, False),
    (ValueError, Verdict.STOP, False, False),
]


@pytest.mark.parametrize(
    "error, verdict, breaker, suspect", EXPECTED,
    ids=[row[0].__name__ for row in EXPECTED])
def test_classification_table(error, verdict, breaker, suspect):
    rule = classify(error("x"))
    assert (rule.verdict, rule.breaker, rule.suspect) == \
        (verdict, breaker, suspect)


def test_every_row_is_covered_and_subclasses_inherit():
    assert {rule.error for rule in RULES} <= {row[0] for row in EXPECTED}

    class Shed(errors.ServerBusyError):
        pass

    assert classify(Shed("x")).verdict is Verdict.RETRY_LATER
    # Only evidence of death is ever a breaker or suspicion signal, and
    # nothing that is retried in place or later is.
    for rule in RULES:
        if rule.breaker or rule.suspect:
            assert rule.verdict is Verdict.NEXT_TARGET


# ---------------------------------------------------------------------------
# The gate
# ---------------------------------------------------------------------------

def _gate_world():
    world = World(seed=1)
    world.node("org", "s")
    world.node("org", "c")
    return world, world.nucleus("c")


class TestRetryGate:
    def test_first_deposits_and_retry_withdraws(self):
        world, nucleus = _gate_world()
        gate = RetryGate(nucleus, "invoke", "op", None)
        gate.first("s")
        gate.retry("s")
        stats = nucleus.retry_budgets.budget("s", "invoke").stats()
        assert (stats["first_attempts"], stats["retries_granted"]) == (1, 1)

    def test_dry_budget_refuses_with_the_retryable_later_error(self):
        world, nucleus = _gate_world()
        nucleus.retry_budgets.enabled = True
        nucleus.retry_budgets.budget("s", "group").tokens = 0.0
        gate = RetryGate(nucleus, "group", "group g", None)
        with pytest.raises(errors.RetryBudgetExhaustedError) as excinfo:
            gate.retry("s")
        assert excinfo.value.retryable

    def test_deadline_is_checked_before_the_budget_is_spent(self):
        world, nucleus = _gate_world()
        gate = RetryGate(nucleus, "shard", "chase", deadline=5.0)
        world.clock.advance(6.0)
        with pytest.raises(errors.InvocationExpiredError):
            gate.retry("s")
        assert nucleus.retry_budgets.budget(
            "s", "shard").retries_granted == 0

    def test_boundary_and_error_class_are_the_sites(self):
        """The transport gives up *at* the deadline with
        DeadlineExceededError; group and shard clients only *past* it
        with InvocationExpiredError.  Both are pinned by run digests."""
        world, nucleus = _gate_world()
        world.clock.advance(5.0)
        RetryGate(nucleus, "group", "g", deadline=5.0).check()
        with pytest.raises(errors.DeadlineExceededError):
            RetryGate(nucleus, "invoke", "op", deadline=5.0,
                      expiry=errors.DeadlineExceededError,
                      inclusive=True).check()

    def test_back_off_is_clipped_to_the_deadline_and_counted(self):
        world, nucleus = _gate_world()
        gate = RetryGate(nucleus, "invoke", "op", deadline=3.0)
        policy = RetryPolicy(base_delay_ms=10.0, jitter=0.0)
        waited = gate.back_off(policy, 0, world.network.rng.fork("t"))
        assert waited == 3.0
        assert world.now == 3.0
        assert nucleus.resilience.backoff_wait_ms == 3.0

    def test_fixed_policy_draws_nothing_from_the_stream(self):
        """A fixed-delay policy is a zero-jitter QoS through
        ``from_qos``.  C16's legacy arm is one, so its runs stay
        deterministic only if such a policy never draws."""
        policy = RetryPolicy.from_qos(QoS(
            retries=2, retry_delay_ms=4.0, backoff_multiplier=1.0,
            retry_delay_max_ms=4.0, retry_jitter=0.0))
        assert policy.max_attempts == 3
        # rng=None would raise if the policy tried to draw jitter.
        assert [policy.delay_ms(n, None) for n in range(3)] == [4.0] * 3


# ---------------------------------------------------------------------------
# Counter parity: one lost, one unreachable, one busy and one
# budget-dry invocation through each retrying site.  The expected
# numbers were recorded from the commit before the sites shared one
# gate (dfe0843); the kernel may not silently change what the monitor
# reports.
# ---------------------------------------------------------------------------

def _attempt(call):
    try:
        call()
        return "ok"
    except errors.OdpError as exc:
        return type(exc).__name__


def _counters(world, domain):
    report = TransparencyMonitor(world.domain(domain)).domain_report()
    resilience = report["resilience"]
    budgets = report["overload"]["retry_budgets"]
    return {
        "retries": resilience["retries"],
        "backoff_wait_ms": round(resilience["backoff_wait_ms"], 6),
        "path_failovers": resilience["path_failovers"],
        "breaker_short_circuits": resilience["breaker_short_circuits"],
        "busy_retries": report["perf"]["busy_retries"],
        "spent": budgets["retries_granted"],
        "denied": budgets["retries_denied"],
        "first_attempts": budgets["first_attempts"],
        "now": round(world.now, 6),
    }


def _shed_everything(world, node):
    world.nucleus(node).admission = AdmissionController(
        world.clock, rate_per_s=10.0, burst=1, max_queue=0)


def _transport():
    world = World(seed=3)
    for name in ("n1", "n2", "c"):
        world.node("org", name)
    ref1 = world.capsule("n1", "srv").export(
        Counter(), interface_id="if.shared")
    ref2 = world.capsule("n2", "srv").export(
        Counter(), interface_id="if.shared")
    proxy = world.binder_for(world.capsule("c", "cli")).bind(
        with_paths(ref1, ref1.paths + ref2.paths), qos=QoS(retries=2))
    outcomes = []
    world.faults.lose_next("c", "n1")
    outcomes.append(_attempt(proxy.increment))      # lost, retried here
    world.faults.lose_next("c", "n1", count=3)
    outcomes.append(_attempt(proxy.increment))      # exhausted: next path
    world.crash_node("n1")
    for _ in range(6):                              # trips n1's breaker
        outcomes.append(_attempt(proxy.increment))
    world.crash_node("n2")
    outcomes.append(_attempt(proxy.increment))      # nothing reachable
    world.restart_node("n1")
    world.restart_node("n2")
    world.clock.advance(300.0)                      # breakers half-open
    _shed_everything(world, "n1")
    outcomes.append(_attempt(proxy.increment))
    outcomes.append(_attempt(proxy.increment))      # bucket empty: busy
    world.nucleus("n1").admission = None
    registry = world.nucleus("c").retry_budgets
    registry.enabled = True
    registry.budget("n1", "invoke").tokens = 0.0
    world.faults.lose_next("c", "n1")
    outcomes.append(_attempt(proxy.increment))
    return outcomes, _counters(world, "org")


def _batch():
    world = World(seed=3)
    world.node("org", "s")
    world.node("org", "c")
    ref = world.capsule("s", "srv").export(Counter())
    batcher = BatchClient(world.capsule("c", "cli"), qos=QoS(retries=3))

    def one():
        future = batcher.call(ref, "increment")
        batcher.flush()
        return future.result()

    outcomes = []
    world.faults.lose_next("c", "s")
    outcomes.append(_attempt(one))
    world.crash_node("s")
    outcomes.append(_attempt(one))
    world.restart_node("s")
    _shed_everything(world, "s")
    outcomes.append(_attempt(one))
    outcomes.append(_attempt(one))
    world.nucleus("s").admission = None
    registry = world.nucleus("c").retry_budgets
    registry.enabled = True
    registry.budget("s", "batch").tokens = 0.0
    world.faults.lose_next("c", "s")
    outcomes.append(_attempt(one))
    return outcomes, _counters(world, "org")


def _group():
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
    outcomes = [_attempt(lambda: proxy.put("k", "v0"))]
    sequencer = group.view.sequencer.node
    world.faults.lose_next("client-node", sequencer)
    outcomes.append(_attempt(lambda: proxy.put("k", "lost")))
    _shed_everything(world, sequencer)
    outcomes.append(_attempt(lambda: proxy.put("k", "b1")))
    outcomes.append(_attempt(lambda: proxy.put("k", "b2")))
    world.nucleus(sequencer).admission = None
    registry = world.nucleus("client-node").retry_budgets
    registry.enabled = True
    registry.budget(sequencer, "group").tokens = 0.0
    others = [n for n in ("n1", "n2", "n3") if n != sequencer]
    world.partition([sequencer, "client-node"], others)
    outcomes.append(_attempt(lambda: proxy.put("k", "dry")))
    world.faults.heal_partition()
    for member in group.view.members:
        if not member.alive:
            domain.groups.revive("ob.kv", member.index)
    registry.enabled = False
    world.crash_node(sequencer)
    outcomes.append(_attempt(lambda: proxy.put("k", "failover")))
    outcomes.append(_attempt(lambda: proxy.get("k")))
    return outcomes, _counters(world, "org")


def _shard():
    world = World(seed=5)
    for name in ("n1", "n2", "n3", "cli"):
        world.node("d", name)
    capsules = [world.capsule(n, "srv") for n in ("n1", "n2", "n3")]
    domain = world.domain("d")
    space = domain.shards.create("grid", ShardStore, capsules, shards=8)
    proxy = space.bind(world.capsule("cli", "app"), qos=QoS(retries=3))
    victim = space.owners[0]
    key = next(f"z{i}" for i in range(10_000)
               if space.owner_of(f"z{i}") == victim)
    outcomes = [_attempt(lambda: proxy.incr(key))]
    world.faults.lose_next("cli", victim)
    outcomes.append(_attempt(lambda: proxy.incr(key)))
    _shed_everything(world, victim)
    outcomes.append(_attempt(lambda: proxy.incr(key)))
    outcomes.append(_attempt(lambda: proxy.incr(key)))
    world.nucleus(victim).admission = None
    stale_proxy = space.bind(world.capsule("cli", "app2"))
    world.crash_node(victim)
    outcomes.append(_attempt(lambda: proxy.incr(key)))   # unreachable
    space.rebalancer.node_left(victim, dead=True, down_since=world.now)
    world.restart_node(victim)
    registry = world.nucleus("cli").retry_budgets
    registry.enabled = True
    registry.budget(victim, "shard").tokens = 0.0
    outcomes.append(_attempt(lambda: stale_proxy.incr(key)))  # dry chase
    registry.budget(victim, "shard").tokens = 5.0
    outcomes.append(_attempt(lambda: stale_proxy.incr(key)))  # chase
    return outcomes, _counters(world, "d")


PARITY = {
    "transport": (_transport, [
        "ok", "ok", "ok", "ok", "ok", "ok", "ok", "ok",
        "NodeUnreachableError", "ok", "ServerBusyError",
        "RetryBudgetExhaustedError"], {
        "retries": 8, "backoff_wait_ms": 6.893132, "path_failovers": 6,
        "breaker_short_circuits": 2, "busy_retries": 3, "spent": 5,
        "denied": 1, "first_attempts": 18, "now": 331.5343}),
    "batch": (_batch, [
        "ok", "NodeUnreachableError", "ok", "ServerBusyError",
        "RetryBudgetExhaustedError"], {
        "retries": 2, "backoff_wait_ms": 0.959704, "path_failovers": 0,
        "breaker_short_circuits": 0, "busy_retries": 0, "spent": 1,
        "denied": 1, "first_attempts": 5, "now": 7.220792}),
    "group": (_group, [
        "ok", "MessageLostError", "ok", "ServerBusyError",
        "RetryBudgetExhaustedError", "ok", "ok"], {
        "retries": 0, "backoff_wait_ms": 0.0, "path_failovers": 0,
        "breaker_short_circuits": 0, "busy_retries": 0, "spent": 1,
        "denied": 1, "first_attempts": 7, "now": 25.388696}),
    "shard": (_shard, [
        "ok", "ok", "ok", "ServerBusyError", "NodeUnreachableError",
        "RetryBudgetExhaustedError", "ok"], {
        "retries": 5, "backoff_wait_ms": 8.416145, "path_failovers": 0,
        "breaker_short_circuits": 0, "busy_retries": 4, "spent": 5,
        "denied": 1, "first_attempts": 15, "now": 47.152753}),
}


@pytest.mark.parametrize("site", sorted(PARITY))
def test_monitor_counters_match_the_per_site_loops(site):
    scenario, outcomes, counters = PARITY[site]
    assert scenario() == (outcomes, counters)
