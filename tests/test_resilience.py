"""The invocation resilience layer: exactly-once retries, backoff and
circuit breakers, and scriptable chaos schedules.

Section 4.1 warns that transparency "cannot guarantee that things will
always work perfectly" — these tests pin down what the resilience layer
*does* guarantee: a retransmission never re-executes a non-idempotent
operation, backoff is deterministic and deadline-bounded, dead paths
are abandoned quickly, and chaos scenarios declared as data fire on
schedule.
"""

import pytest

from repro import (
    CrashWindow,
    CutWindow,
    FaultSchedule,
    FlakyWindow,
    GrayWindow,
    QoS,
    World,
)
from repro.check import mutations
from repro.errors import (
    DeadlineExceededError,
    MessageLostError,
    NodeUnreachableError,
)
from repro.mgmt.monitor import TransparencyMonitor
from repro.net.fault import (
    AsymPartitionWindow,
    PartitionWindow,
    StallWindow,
)
from repro.net.latency import FixedLatency
from repro.resilience import (
    BreakerState,
    CircuitBreaker,
    RetryPolicy,
)
from repro.sim.clock import VirtualClock
from tests.conftest import Counter, with_paths


def two_node_world(**kwargs):
    world = World(**kwargs)
    world.node("org", "s")
    world.node("org", "c")
    return world, world.capsule("s", "srv"), world.capsule("c", "cli")


class TestExactlyOnce:
    def test_reply_leg_loss_executes_exactly_once(self):
        """THE duplicate-execution regression: a non-idempotent op whose
        reply leg is lost must run once server-side; the retransmission
        is answered from the reply cache.  (The pre-resilience transport
        re-dispatched and the counter read 2.)"""
        world, servers, clients = two_node_world(seed=1)
        counter = Counter()
        proxy = world.binder_for(clients).bind(
            servers.export(counter), qos=QoS(retries=3))
        # Lose exactly the next server->client (reply) leg.
        world.faults.lose_next("s", "c")
        assert proxy.increment() == 1
        assert counter.value == 1  # executed exactly once
        nucleus = world.nucleus("s")
        assert nucleus.reply_cache.duplicates_suppressed == 1

    def test_legacy_transport_duplicates_on_reply_loss(self):
        """Contrast: the legacy at-least-once transport is the reply
        cache mutated to never hit (C16's legacy arm).  The same loss
        silently executes the operation twice — the mis-masking the
        cache removes."""
        world, servers, clients = two_node_world(seed=1)
        counter = Counter()
        proxy = world.binder_for(clients).bind(
            servers.export(counter), qos=QoS(retries=3))
        world.faults.lose_next("s", "c")
        with mutations.applied("replycache"):
            assert proxy.increment() == 2  # the retry re-executed
        assert counter.value == 2

    def test_duplicate_suppression_under_sustained_loss(self):
        world, servers, clients = two_node_world(
            seed=13, drop_probability=0.25)
        counter = Counter()
        proxy = world.binder_for(clients).bind(
            servers.export(counter), qos=QoS(retries=50))
        calls = 40
        for _ in range(calls):
            proxy.increment()
        assert counter.value == calls
        assert world.nucleus("s").reply_cache.duplicates_suppressed > 0

    def test_request_leg_loss_does_not_consult_cache(self):
        """A lost *request* never executed; the retry is a fresh
        dispatch, not a suppressed duplicate."""
        world, servers, clients = two_node_world(seed=1)
        counter = Counter()
        proxy = world.binder_for(clients).bind(
            servers.export(counter), qos=QoS(retries=3))
        world.faults.lose_next("c", "s")
        assert proxy.increment() == 1
        assert counter.value == 1
        assert world.nucleus("s").reply_cache.duplicates_suppressed == 0

    def test_reply_cache_is_bounded(self):
        from repro.resilience import ReplyCache
        cache = ReplyCache()
        cache.capacity = 3
        for i in range(5):
            cache.store(f"inv-{i}", b"reply")
        assert len(cache._replies) == 3
        assert cache.evictions == 2
        assert cache.lookup("inv-0") is None  # evicted -> at-least-once
        assert cache.lookup("inv-4") == b"reply"


class TestRetryPolicy:
    def test_exponential_growth_capped(self):
        from repro.sim.rand import DeterministicRandom
        policy = RetryPolicy(max_attempts=6, base_delay_ms=1.0,
                             multiplier=2.0, max_delay_ms=5.0, jitter=0.0)
        rng = DeterministicRandom(0)
        delays = [policy.delay_ms(a, rng) for a in range(5)]
        assert delays == [1.0, 2.0, 4.0, 5.0, 5.0]

    def test_from_qos(self):
        policy = RetryPolicy.from_qos(QoS(retries=4, retry_delay_ms=0.5))
        assert policy.max_attempts == 5
        assert policy.base_delay_ms == 0.5

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_backoff_never_advances_clock_past_deadline(self):
        """The satellite bugfix: the wait is clipped to the remaining
        budget, so the clock lands exactly on the deadline instead of
        sailing past it only to raise afterwards."""
        world, servers, clients = two_node_world(seed=2)
        proxy = world.binder_for(clients).bind(
            servers.export(Counter()),
            qos=QoS(retries=50, deadline_ms=10.0))
        world.faults.lose_next("c", "s", count=50)
        started = world.now
        with pytest.raises(DeadlineExceededError):
            proxy.increment()
        assert world.now - started <= 10.0 + 1e-9

    def test_identically_seeded_runs_back_off_identically(self):
        """Determinism: same seed -> same drops, same jittered backoff
        sequence, same virtual finishing time."""
        def run():
            world, servers, clients = two_node_world(
                seed=21, drop_probability=0.3)
            proxy = world.binder_for(clients).bind(
                servers.export(Counter()), qos=QoS(retries=30))
            for _ in range(20):
                proxy.increment()
            resilience = world.nucleus("c").resilience
            return (world.now, resilience.retries,
                    resilience.backoff_wait_ms, world.faults.drops)

        assert run() == run()

    def test_seeds_differ(self):
        def run(seed):
            world, servers, clients = two_node_world(
                seed=seed, drop_probability=0.3)
            proxy = world.binder_for(clients).bind(
                servers.export(Counter()), qos=QoS(retries=30))
            for _ in range(20):
                proxy.increment()
            return (world.now, world.nucleus("c").resilience.backoff_wait_ms)

        assert run(21) != run(22)


class TestPathFailover:
    def _dual_path_proxy(self, world):
        """One interface exported under the same id on two nodes; the
        reference carries both access paths."""
        world.node("org", "n1")
        world.node("org", "n2")
        world.node("org", "client")
        c1 = world.capsule("n1", "srv")
        c2 = world.capsule("n2", "srv")
        clients = world.capsule("client", "cli")
        primary, standby = Counter(), Counter()
        ref1 = c1.export(primary, interface_id="if.shared")
        ref2 = c2.export(standby, interface_id="if.shared")
        ref = with_paths(ref1, ref1.paths + ref2.paths)
        proxy = world.binder_for(clients).bind(
            ref, qos=QoS(retries=2))
        return proxy, primary, standby

    def test_exhausted_retries_fail_over_to_next_path(self):
        """The satellite bugfix: exhausting MessageLostError retries on
        one access path no longer raises immediately — the remaining
        paths are tried first."""
        world = World(seed=3)
        proxy, primary, standby = self._dual_path_proxy(world)
        world.faults.lose_next("client", "n1", count=10)
        assert proxy.increment() == 1
        assert primary.value == 0
        assert standby.value == 1
        assert world.nucleus("client").resilience.path_failovers >= 1

    def test_loss_on_all_paths_still_raises(self):
        world = World(seed=3)
        proxy, primary, standby = self._dual_path_proxy(world)
        world.faults.lose_next("client", "n1", count=10)
        world.faults.lose_next("client", "n2", count=10)
        with pytest.raises(MessageLostError):
            proxy.increment()


class TestCircuitBreaker:
    def test_state_machine_closed_open_half_open_closed(self):
        clock = VirtualClock()
        breaker = CircuitBreaker(clock)
        assert breaker.state == BreakerState.CLOSED
        for _ in range(breaker.failure_threshold):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state == BreakerState.OPEN
        assert breaker.trips == 1
        assert not breaker.allow()
        assert breaker.rejections == 1
        clock.advance(breaker.reset_timeout_ms)
        assert breaker.allow()  # cooldown elapsed -> half-open probe
        assert breaker.state == BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state == BreakerState.CLOSED

    def test_half_open_failure_reopens(self):
        clock = VirtualClock()
        breaker = CircuitBreaker(clock)
        for _ in range(breaker.failure_threshold):
            breaker.record_failure()
        clock.advance(breaker.reset_timeout_ms)
        assert breaker.allow()
        breaker.record_failure()  # the probe failed
        assert breaker.state == BreakerState.OPEN
        assert breaker.trips == 2
        assert not breaker.allow()

    def test_success_resets_consecutive_failures(self):
        clock = VirtualClock()
        breaker = CircuitBreaker(clock)
        for _ in range(breaker.failure_threshold - 1):
            breaker.record_failure()
        breaker.record_success()
        for _ in range(breaker.failure_threshold - 1):
            breaker.record_failure()
        assert breaker.state == BreakerState.CLOSED

    def test_open_breaker_short_circuits_transport(self):
        """After enough NodeUnreachable failures the transport stops
        probing the dead node entirely; once the node restarts and the
        cooldown passes, a half-open probe restores service."""
        world, servers, clients = two_node_world(seed=5)
        proxy = world.binder_for(clients).bind(servers.export(Counter()))
        world.crash_node("s")
        breaker = world.nucleus("c").breakers.breaker_for("s", "rrp")
        for _ in range(breaker.failure_threshold):
            with pytest.raises(NodeUnreachableError):
                proxy.increment()
        assert breaker.state == BreakerState.OPEN
        network, requests = world.network, []
        request = network.request
        network.request = lambda *a, **k: requests.append(a) or request(
            *a, **k)
        with pytest.raises(NodeUnreachableError):
            proxy.increment()  # rejected without touching the network
        assert requests == []
        del network.request
        assert world.nucleus("c").resilience.breaker_short_circuits >= 1
        world.restart_node("s")
        world.clock.advance(breaker.reset_timeout_ms)
        assert proxy.increment() == 1  # half-open probe succeeds
        assert breaker.state == BreakerState.CLOSED

    def test_message_loss_does_not_feed_the_breaker(self):
        world, servers, clients = two_node_world(
            seed=5, drop_probability=0.4)
        proxy = world.binder_for(clients).bind(
            servers.export(Counter()), qos=QoS(retries=60))
        for _ in range(20):
            proxy.increment()
        breaker = world.nucleus("c").breakers.breaker_for("s", "rrp")
        assert breaker.trips == 0
        assert breaker.state == BreakerState.CLOSED


class TestFaultPlanExtensions:
    def test_drop_probability_setter_validates(self):
        world = World(seed=1)
        with pytest.raises(ValueError):
            world.faults.drop_probability = 1.0
        with pytest.raises(ValueError):
            world.faults.drop_probability = -0.1
        world.faults.drop_probability = 0.5  # mid-run mutation is fine
        assert world.faults.drop_probability == 0.5

    def test_constructor_still_validates(self):
        from repro.net.fault import FaultPlan
        with pytest.raises(ValueError):
            FaultPlan(drop_probability=2.0)

    def test_gray_link_inflates_latency(self):
        world, servers, clients = two_node_world(
            seed=1, latency=FixedLatency(10.0))
        proxy = world.binder_for(clients).bind(servers.export(Counter()))
        start = world.now
        proxy.increment()
        healthy = world.now - start
        world.faults.degrade_link("c", "s", 4.0)
        world.faults.degrade_link("s", "c", 4.0)
        start = world.now
        proxy.increment()
        gray = world.now - start
        assert gray == pytest.approx(healthy * 4.0, rel=0.01)
        world.faults.degrade_link("c", "s", 1.0)
        world.faults.degrade_link("s", "c", 1.0)
        start = world.now
        proxy.increment()
        assert world.now - start == pytest.approx(healthy, rel=0.01)


class TestChaosSchedule:
    def test_crash_window_fires_on_the_virtual_clock(self):
        world, servers, clients = two_node_world(seed=7)
        proxy = world.binder_for(clients).bind(servers.export(Counter()))
        schedule = FaultSchedule(
            CrashWindow(node="s", start_ms=50.0, end_ms=80.0))
        world.apply_chaos(schedule)
        assert proxy.increment() == 1          # before the window
        world.clock.advance(55.0)
        with pytest.raises(NodeUnreachableError):
            proxy.increment()                  # inside: node is down
        world.clock.advance(30.0)
        assert proxy.increment() == 2          # after: restarted
        assert schedule.activations == 2

    def test_flaky_window_raises_and_restores_drop_rate(self):
        world, servers, clients = two_node_world(seed=9)
        schedule = FaultSchedule(
            FlakyWindow(start_ms=0.0, end_ms=200.0, drop=0.5))
        world.apply_chaos(schedule)
        proxy = world.binder_for(clients).bind(
            servers.export(Counter()), qos=QoS(retries=100))
        for _ in range(20):
            proxy.increment()
        in_window = world.faults.drops
        assert in_window > 0
        world.clock.advance(300.0)
        for _ in range(20):
            proxy.increment()
        assert world.faults.drops == in_window  # calm after the window
        assert world.faults.drop_probability == 0.0

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="each global FlakyWindow restores the base drop rate it "
               "saw on entry, so the first of two overlapping windows "
               "to close clears the second's rate, and the last to close "
               "restores the first's (seeds 0, 11, 16, 17, 117, 121 and "
               "126 of the default plans carry such a pair)")
    def test_overlapping_flaky_windows_restore_the_base_rate(self):
        world, servers, clients = two_node_world(seed=9)
        world.apply_chaos(FaultSchedule(
            FlakyWindow(start_ms=0.0, end_ms=100.0, drop=0.2),
            FlakyWindow(start_ms=50.0, end_ms=150.0, drop=0.3)))
        rates = []
        for at in (120.0, 200.0):
            world.clock.advance(at - world.now)
            world.faults.should_drop("x", "y", world.network.rng)  # sync
            rates.append(world.faults.drop_probability)
        # At 120 ms only the second window is open; at 200 ms none is.
        assert rates == [0.3, 0.0]

    def test_gray_window(self):
        world, servers, clients = two_node_world(
            seed=1, latency=FixedLatency(10.0))
        schedule = FaultSchedule(
            GrayWindow(start_ms=100.0, end_ms=200.0, factor=5.0,
                       source="c", destination="s"))
        world.apply_chaos(schedule)
        proxy = world.binder_for(clients).bind(servers.export(Counter()))
        start = world.now
        proxy.increment()
        healthy = world.now - start
        world.clock.advance(100.0 - world.now + 1.0)
        start = world.now
        proxy.increment()
        assert world.now - start > healthy  # outbound leg degraded

    def test_schedule_as_data_round_trip(self):
        schedule = FaultSchedule(
            CrashWindow(node="a", start_ms=1.0, end_ms=2.0),
            FlakyWindow(start_ms=0.0, end_ms=5.0, drop=0.1))
        assert len(schedule.windows) == 2
        from repro.net.fault import FaultPlan
        plan = FaultPlan()
        schedule.sync(1.5, plan)
        assert plan.is_crashed("a")
        assert plan.drop_probability == 0.1
        schedule.sync(10.0, plan)
        assert not plan.is_crashed("a")
        assert plan.drop_probability == 0.0

    def test_install_pumps_via_scheduler(self):
        from repro.net.fault import FaultPlan
        from repro.sim.scheduler import Scheduler
        scheduler = Scheduler()
        plan = FaultPlan()
        schedule = FaultSchedule(
            CrashWindow(node="a", start_ms=5.0, end_ms=9.0))
        schedule.install(scheduler, plan)
        scheduler.run_until(6.0)
        assert plan.is_crashed("a")
        scheduler.run_until_idle()
        assert not plan.is_crashed("a")


class TestMonitorSurface:
    def test_domain_report_carries_resilience_counters(self):
        world, servers, clients = two_node_world(seed=1)
        counter = Counter()
        proxy = world.binder_for(clients).bind(
            servers.export(counter), qos=QoS(retries=3))
        world.faults.lose_next("s", "c")
        proxy.increment()
        report = TransparencyMonitor(
            world.domain("org")).domain_report()["resilience"]
        assert report["retries"] == 1
        assert report["duplicates_suppressed"] == 1
        assert report["replies_cached"] >= 1
        assert report["backoff_wait_ms"] > 0.0

    def test_breaker_counters_reach_the_report(self):
        world, servers, clients = two_node_world(seed=1)
        proxy = world.binder_for(clients).bind(servers.export(Counter()))
        world.crash_node("s")
        for _ in range(6):
            with pytest.raises(NodeUnreachableError):
                proxy.increment()
        report = TransparencyMonitor(
            world.domain("org")).domain_report()["resilience"]
        assert report["breaker_trips"] >= 1
        assert report["breaker_rejections"] >= 1
        assert report["breakers_open"] >= 1
        assert report["breaker_short_circuits"] >= 1


class TestReplyCacheBound:
    def test_churn_respects_capacity_and_counts_evictions(self):
        from repro.resilience import ReplyCache
        cache = ReplyCache()
        cache.capacity = 8
        for index in range(100):
            cache.store(f"inv-{index}", b"reply")
        assert len(cache._replies) == 8
        assert cache.evictions == 92
        assert cache.lookup("inv-0") is None      # evicted long ago
        assert cache.lookup("inv-99") == b"reply"  # newest retained

    def test_expired_entries_are_purged_before_live_ones_churn_out(self):
        from repro.resilience import ReplyCache
        clock = VirtualClock()
        cache = ReplyCache(clock=clock)
        cache.capacity = 4
        # A live deadline-less entry a client might still retransmit
        # for, then a burst of short-deadline traffic that would churn
        # it out under blind insertion-order eviction.
        cache.store("inv-live", b"keep")
        for index in range(8):
            cache.store(f"inv-dead-{index}", b"gone",
                        expires_at=clock.now + 1.0)
        assert cache.lookup("inv-live") is None   # capacity churned it
        clock.advance(5.0)
        cache.store("inv-live-2", b"keep")
        # Every expired entry was purged eagerly on this store: past
        # its deadline a reply can never be legally replayed, so it
        # must not squat in the capacity window.
        assert len(cache._replies) == 1
        assert cache.expired_evictions == 4       # the survivors of churn
        assert cache.lookup("inv-dead-7") is None
        assert cache.lookup("inv-live-2") == b"keep"
        # Fresh short-deadline churn no longer displaces live entries:
        # each store purges the previous, already-expired burst first.
        for index in range(20):
            cache.store(f"inv-burst-{index}", b"gone",
                        expires_at=clock.now + 0.5)
            clock.advance(1.0)
        assert cache.lookup("inv-live-2") == b"keep"
        assert cache.expired_evictions > 4

    def test_evictions_reach_the_domain_report(self):
        world, servers, clients = two_node_world(seed=1)
        world.nucleus("s").reply_cache.capacity = 2
        proxy = world.binder_for(clients).bind(servers.export(Counter()))
        for _ in range(5):
            proxy.increment()
        report = TransparencyMonitor(
            world.domain("org")).domain_report()["resilience"]
        assert report["reply_cache_evictions"] == 3


class TestFaultScheduleValidation:
    def test_negative_start_rejected(self):
        with pytest.raises(ValueError, match="start_ms -5 is negative"):
            FaultSchedule(CrashWindow("n", start_ms=-5))

    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError, match="precedes start_ms"):
            FaultSchedule(FlakyWindow(start_ms=10, end_ms=5, drop=0.5))

    def test_negative_end_rejected(self):
        with pytest.raises(ValueError, match="end_ms -1 is negative"):
            FaultSchedule(GrayWindow(start_ms=0, end_ms=-1, factor=2.0,
                                     source="a", destination="b"))

    @pytest.mark.parametrize("window", [
        lambda bad: FlakyWindow(bad, bad, 0.5),
        lambda bad: FlakyWindow(0.0, bad, 0.5),
        lambda bad: CrashWindow("a", bad, 5.0),
        lambda bad: CrashWindow("a", 0.0, bad),
        lambda bad: GrayWindow(bad, 5.0, 2.0, "a", "b"),
        lambda bad: StallWindow("a", bad, 5.0, 2.0),
        lambda bad: CutWindow("a", "b", bad),
        lambda bad: PartitionWindow((("a",), ("b",)), bad, 5.0),
        lambda bad: AsymPartitionWindow(("a",), ("b",), 0.0, bad),
    ])
    def test_nan_boundary_rejected(self, window):
        # nan < 0 and nan > now are both false: unrejected, the window
        # would be "entered" at attach time and never left.
        nan = float("nan")
        with pytest.raises(ValueError, match="_ms is not a number"):
            FaultSchedule(window(nan))
        # None stays "forever" and inf stays legal.
        FaultSchedule(CrashWindow("a", 1.0, None),
                      CutWindow("a", "b", 1.0, float("inf")))
