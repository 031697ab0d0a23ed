"""Tests for the network simulator: latency, faults, delivery."""

import random

import pytest

from repro.errors import MessageLostError, NodeUnreachableError
from repro.net.fault import (
    LOST,
    UNREACHABLE,
    CrashWindow,
    FaultPlan,
    FaultSchedule,
    FlakyWindow,
    GrayWindow,
    PartitionWindow,
)
from repro.net.latency import (
    FixedLatency,
    LatencyModel,
    UniformLatency,
)
from repro.net.network import Network
from repro.sim.clock import VirtualClock
from repro.sim.rand import DeterministicRandom
from repro.sim.scheduler import Scheduler
from tests.conftest import queued


def make_network(**kwargs):
    sched = Scheduler()
    net = Network(sched, **kwargs)
    return sched, net


class TestLatencyModels:
    def test_base_model_charges_propagation_plus_bandwidth(self):
        model = LatencyModel(propagation_ms=2.0,
                             bandwidth_bytes_per_ms=100.0)
        assert model.delay("a", "b", 500) == 2.0 + 5.0

    def test_fixed_ignores_size(self):
        model = FixedLatency(3.0)
        assert model.delay("a", "b", 0) == 3.0
        assert model.delay("a", "b", 10**6) == 3.0

    def test_uniform_within_bounds(self):
        model = UniformLatency(1.0, 4.0, bandwidth_bytes_per_ms=1e9)
        rng = DeterministicRandom(1)
        for _ in range(50):
            assert 1.0 <= model.delay("a", "b", 0, rng) <= 4.0

    def test_uniform_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            UniformLatency(5.0, 1.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LatencyModel(propagation_ms=-1)
        with pytest.raises(ValueError):
            LatencyModel(bandwidth_bytes_per_ms=0)


class TestFaultPlan:
    def test_crash_blocks_both_directions(self):
        plan = FaultPlan()
        plan.crash_node("x")
        assert plan.link_blocked("x", "y")
        assert plan.link_blocked("y", "x")
        plan.restart_node("x")
        assert not plan.link_blocked("y", "x")

    def test_cut_link_is_symmetric_and_healable(self):
        plan = FaultPlan()
        plan.cut_link("a", "b")
        assert plan.link_blocked("a", "b")
        assert plan.link_blocked("b", "a")
        assert not plan.link_blocked("a", "c")
        plan.heal_link("b", "a")
        assert not plan.link_blocked("a", "b")

    def test_partition_groups(self):
        plan = FaultPlan()
        plan.partition(["a", "b"], ["c"])
        assert not plan.link_blocked("a", "b")
        assert plan.link_blocked("a", "c")
        assert plan.link_blocked("c", "b")
        # unmentioned nodes reach everyone
        assert not plan.link_blocked("a", "z")
        plan.heal_partition()
        assert not plan.link_blocked("a", "c")

    def test_partition_rejects_overlap(self):
        plan = FaultPlan()
        with pytest.raises(ValueError):
            plan.partition(["a"], ["a", "b"])

    def test_drop_probability_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_probability=1.0)
        with pytest.raises(ValueError):
            FaultPlan(drop_probability=-0.1)


#: Windows whose boundary is the instant the questions are asked at.
_BOUNDARY_MS = 5.0
_BOUNDARY_WINDOWS = (
    CrashWindow("a", _BOUNDARY_MS),
    CrashWindow("b", 0.0, _BOUNDARY_MS),
    FlakyWindow(_BOUNDARY_MS, 9.0, 0.6),
    GrayWindow(_BOUNDARY_MS, 9.0, 4.0, "a", "b"),
    PartitionWindow((("a",), ("b",)), _BOUNDARY_MS),
)


def _generated_plan(seed):
    """A fault plan in a state drawn from *seed*, the schedule driving
    it (or None) and the RNG its loss draws come from.  Calling it
    twice with one seed gives twins."""
    gen = random.Random(seed)

    def sometimes(share=0.2):
        return gen.random() < share

    plan = FaultPlan(drop_probability=gen.choice((0.0, 0.0, 0.3, 0.9)))
    if sometimes():
        plan.crash_node("a")
    if sometimes():
        plan.crash_node("b")
    if sometimes():
        plan.cut_link("b", "a")
    if sometimes():
        plan.asym_partition(["a"], ["b"])
    if sometimes():
        plan.asym_partition(["b"], ["a"])   # the other direction only
    if sometimes():
        plan.partition(["a"], ["b", "c"])
    if sometimes():
        plan.partition(["a", "b"], ["c"])   # both ends on one side
    if sometimes(0.3):
        plan.lose_next("a", "b", gen.choice((1, 2)))
    if sometimes(0.3):
        plan.degrade_link("a", "b", 2.5)
    schedule = None
    if sometimes(0.5):
        clock = VirtualClock()
        schedule = FaultSchedule(*gen.sample(_BOUNDARY_WINDOWS, 2))
        plan.attach_schedule(schedule, clock)
        clock.advance(_BOUNDARY_MS)  # nothing has asked the plan since
    return plan, schedule, DeterministicRandom(seed)


def _three_questions(plan, rng, one_way):
    """What ``Network`` asked, in the order it asked, before the plan
    answered a whole leg at once."""
    if plan.is_crashed("a") if one_way else plan.link_blocked("a", "b"):
        return UNREACHABLE
    if plan.should_drop("a", "b", rng):
        return LOST
    return plan.latency_factor("a", "b")


class TestLegVerdict:
    @pytest.mark.parametrize("one_way", [True, False],
                             ids=["post", "request"])
    def test_one_verdict_is_the_three_questions(self, one_way):
        verdicts = set()
        for seed in range(800):
            old, old_schedule, old_rng = _generated_plan(seed)
            new, new_schedule, new_rng = _generated_plan(seed)
            # Thrice: a lose_next of 2 runs out, the draws move on.
            for _ in range(3):
                verdict = new.leg_verdict("a", "b", new_rng, one_way)
                assert verdict == _three_questions(old, old_rng, one_way), \
                    seed
                assert new.drops == old.drops, seed
                assert new._lose_next == old._lose_next, seed
                assert new.crashed_nodes == old.crashed_nodes, seed
                assert new.drop_probability == old.drop_probability, seed
                if new_schedule is not None:
                    assert new_schedule.activations \
                        == old_schedule.activations > 0, seed
                assert new_rng.random() == old_rng.random(), seed
                verdicts.add(verdict)
        assert verdicts == {UNREACHABLE, LOST, 1.0, 2.5, 4.0}

    def test_verdicts_that_are_not_factors_are_below_any_factor(self):
        assert UNREACHABLE != LOST
        assert UNREACHABLE < 1.0 and LOST < 1.0
        with pytest.raises(ValueError):
            FaultPlan().degrade_link("a", "b", 0.99)

    def test_nan_is_not_a_factor(self):
        # ``nan < 1.0`` is false: a NaN factor once passed, and a post
        # over that link would push a NaN time into the event heap.
        with pytest.raises(ValueError):
            FaultPlan().degrade_link("a", "b", float("nan"))
        with pytest.raises(ValueError):
            FaultPlan().stall_node("a", float("nan"))
        sched, net = make_network()
        net.faults.attach_schedule(
            FaultSchedule(GrayWindow(1.0, 9.0, float("nan"), "a", "b")),
            sched.clock)
        sched.clock.advance(1.0)
        with pytest.raises(ValueError):
            net.post("a", "b", b"x")  # the window opens under this ask
        assert queued(sched) == 0


class TestNetwork:
    def test_request_reply_roundtrip(self):
        sched, net = make_network()
        net.add_node("a")
        server = net.add_node("b")
        server.on_request(lambda src, payload: payload.upper())
        assert net.request("a", "b", b"hello") == b"HELLO"

    def test_request_charges_round_trip_latency(self):
        sched, net = make_network(latency=FixedLatency(5.0))
        net.add_node("a")
        net.add_node("b").on_request(lambda s, p: p)
        net.request("a", "b", b"x")
        assert sched.now == 10.0

    def test_request_to_crashed_node_raises(self):
        sched, net = make_network()
        net.add_node("a")
        net.add_node("b").on_request(lambda s, p: p)
        net.faults.crash_node("b")
        with pytest.raises(NodeUnreachableError):
            net.request("a", "b", b"x")

    def test_request_to_unknown_node_raises(self):
        sched, net = make_network()
        net.add_node("a")
        with pytest.raises(NodeUnreachableError):
            net.request("a", "ghost", b"x")

    def test_duplicate_node_rejected(self):
        _, net = make_network()
        net.add_node("a")
        with pytest.raises(ValueError):
            net.add_node("a")

    def test_drops_raise_message_lost(self):
        sched, net = make_network(
            rng=DeterministicRandom(0))
        net.faults.drop_probability = 0.95
        net.add_node("a")
        net.add_node("b").on_request(lambda s, p: p)
        with pytest.raises(MessageLostError):
            for _ in range(50):
                net.request("a", "b", b"x")

    def test_post_delivers_asynchronously(self):
        sched, net = make_network(latency=FixedLatency(3.0))
        net.add_node("a")
        received = []
        net.add_node("b").on_deliver(
            "data", lambda m: received.append(m.payload))
        net.post("a", "b", b"later")
        assert received == []  # not yet delivered
        sched.run_until_idle()
        assert received == [b"later"]
        assert sched.now == 3.0

    def test_post_to_node_that_dies_in_flight_is_dropped(self):
        sched, net = make_network(latency=FixedLatency(3.0))
        net.add_node("a")
        received = []
        net.add_node("b").on_deliver(
            "data", lambda m: received.append(m))
        net.post("a", "b", b"doomed")
        net.faults.crash_node("b")
        sched.run_until_idle()
        assert received == []
        assert net.faults.drops == 1

    def test_post_from_node_that_dies_in_flight_is_dropped(self):
        # Delivery re-evaluates the whole link, the sender's end too.
        sched, net = make_network(latency=FixedLatency(3.0))
        net.add_node("a")
        received = []
        net.add_node("b").on_deliver(
            "data", lambda m: received.append(m))
        net.post("a", "b", b"orphan")
        net.faults.crash_node("a")
        sched.run_until_idle()
        assert received == []
        assert net.faults.drops == 1
        assert net.total_messages == 0

    def test_gray_link_delays_a_post_by_its_factor(self):
        sched, net = make_network(latency=FixedLatency(3.0))
        net.add_node("a")
        arrivals = []
        net.add_node("b").on_deliver(
            "data", lambda m: arrivals.append((sched.now, m.sent_at)))
        net.faults.degrade_link("a", "b", 2.5)
        net.post("a", "b", b"slow")
        net.post("b", "a", b"the other direction is healthy")
        sched.run_until_idle()
        assert arrivals == [(7.5, 0.0)]

    def test_lose_next_is_consumed_by_a_post(self):
        sched, net = make_network()
        net.add_node("a")
        received = []
        net.add_node("b").on_deliver(
            "data", lambda m: received.append(m.payload))
        net.faults.lose_next("a", "b")
        net.post("a", "b", b"lost")
        net.post("a", "b", b"kept")
        sched.run_until_idle()
        assert received == [b"kept"]
        assert net.faults.drops == 1
        assert net.total_messages == 1

    def test_crashed_node_sends_nothing(self):
        sched, net = make_network()
        net.add_node("a")
        received = []
        net.add_node("b").on_deliver("data",
                                     lambda m: received.append(m))
        net.faults.crash_node("a")
        net.post("a", "b", b"x")
        sched.run_until_idle()
        assert received == []

    def test_traffic_accounting(self):
        sched, net = make_network()
        net.add_node("a")
        net.add_node("b").on_request(lambda s, p: b"yy")
        net.request("a", "b", b"xxx")
        assert net.total_messages == 2
        assert net.total_bytes == 5
        assert net.node("a").stats.messages_sent == 1
        assert net.node("a").stats.bytes_received == 2
        assert net.node("b").stats.messages_received == 1

    def test_a_send_is_counted_when_it_leaves_not_when_it_arrives(self):
        sched, net = make_network(latency=FixedLatency(3.0))
        a, b = net.add_node("a"), net.add_node("b")
        b.on_request(lambda s, p: b"yy")
        b.on_deliver("data", lambda m: None)
        net.faults.lose_next("a", "b")
        with pytest.raises(MessageLostError):
            net.request("a", "b", b"xxx")  # lost on the way out
        net.faults.lose_next("b", "a")
        with pytest.raises(MessageLostError):
            net.request("a", "b", b"xxx")  # the reply lost
        net.post("a", "b", b"doomed")
        net.faults.crash_node("b")
        sched.run_until_idle()  # dropped at delivery
        net.post("b", "a", b"never")  # a crashed node sends nothing
        assert (a.stats.messages_sent, b.stats.messages_sent) == (3, 1)
        assert (a.stats.messages_received,
                b.stats.messages_received) == (0, 1)
        assert net.total_messages == 1 and net.total_bytes == 3

    def test_partition_blocks_request(self):
        sched, net = make_network()
        net.add_node("a")
        net.add_node("b").on_request(lambda s, p: p)
        net.faults.partition(["a"], ["b"])
        with pytest.raises(NodeUnreachableError):
            net.request("a", "b", b"x")
        net.faults.heal_partition()
        assert net.request("a", "b", b"x") == b"x"
