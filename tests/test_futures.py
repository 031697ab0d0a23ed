"""Tests for split-phase asynchronous invocation (futures)."""

import pytest

from repro import OdpObject, QoS, Signal, operation
from repro.engine.futures import AsyncInvoker
from repro.errors import DeadlineExceededError
from repro.net.latency import FixedLatency
from repro.runtime import World
from tests.conftest import Account, Counter


class SlowService(OdpObject):
    """Server whose latency comes from the network, not computation."""

    def __init__(self):
        self.calls = 0

    @operation(returns=[int])
    def poke(self):
        self.calls += 1
        return self.calls


def build(latency_ms=25.0):
    world = World(seed=2, latency=FixedLatency(latency_ms))
    world.node("org", "server-node")
    world.node("org", "client-node")
    servers = world.capsule("server-node", "srv")
    clients = world.capsule("client-node", "cli")
    invoker = AsyncInvoker(world.binder_for(clients), clients)
    return world, servers, clients, invoker


class TestFutures:
    def test_single_async_call_resolves(self):
        world, servers, clients, invoker = build()
        ref = servers.export(Counter())
        future = invoker.call(ref, "increment")
        assert not future.done
        world.settle()
        assert future.done
        assert future.result() == 1

    def test_unresolved_result_raises(self):
        world, servers, clients, invoker = build()
        ref = servers.export(Counter())
        future = invoker.call(ref, "increment")
        with pytest.raises(RuntimeError, match="not resolved"):
            future.result()

    def test_round_trips_overlap(self):
        """The whole point: two calls together cost ~one RTT, not two."""
        world, servers, clients, invoker = build(latency_ms=25.0)
        ref_a = servers.export(Counter())
        ref_b = servers.export(Counter())

        start = world.now
        f1 = invoker.call(ref_a, "increment")
        f2 = invoker.call(ref_b, "increment")
        world.settle()
        overlapped = world.now - start
        assert f1.result() == 1 and f2.result() == 1
        # One RTT is ~50ms; serial execution would be ~100ms.
        assert overlapped < 75.0

        # Compare with the synchronous proxy path.
        proxy_a = world.binder_for(clients).bind(ref_a)
        proxy_b = world.binder_for(clients).bind(ref_b)
        start = world.now
        proxy_a.increment()
        proxy_b.increment()
        serial = world.now - start
        assert serial > overlapped

    def test_fan_out_gather(self):
        world, servers, clients, invoker = build(latency_ms=10.0)
        refs = [servers.export(Counter()) for _ in range(8)]
        start = world.now
        futures = [invoker.call(ref, "increment") for ref in refs]
        world.settle()
        assert [future.result() for future in futures] == [1] * 8
        # Eight overlapped RTTs cost far less than eight serial ones.
        assert world.now - start < 8 * 20.0 * 0.5

    def test_signal_outcomes_surface_through_future(self):
        world, servers, clients, invoker = build()
        ref = servers.export(Account(3))
        future = invoker.call(ref, "withdraw", 100)
        world.settle()
        with pytest.raises(Signal) as exc:
            future.result()
        assert exc.value.name == "overdrawn"
        assert exc.value.values == (3,)

    def test_infrastructure_errors_surface(self):
        world, servers, clients, invoker = build()
        ref = servers.export(Counter())
        future = invoker.call(ref, "no_such_operation")
        world.settle()
        from repro.errors import UnknownOperationError
        with pytest.raises(UnknownOperationError):
            future.result()

    def test_deadline_fails_future_on_silence(self):
        world, servers, clients, invoker = build(latency_ms=10.0)
        ref = servers.export(Counter())
        world.crash_node("server-node")  # the request will vanish
        future = invoker.call(ref, "increment",
                              qos=QoS(deadline_ms=100.0))
        world.settle()
        assert future.done
        with pytest.raises(DeadlineExceededError):
            future.result()

    def test_callbacks_fire_on_resolution(self):
        world, servers, clients, invoker = build()
        ref = servers.export(Counter())
        observed = []
        future = invoker.call(ref, "increment")
        future.add_callback(lambda f: observed.append(f.result()))
        world.settle()
        assert observed == [1]
        # Late registration fires immediately.
        future.add_callback(lambda f: observed.append("late"))
        assert observed == [1, "late"]

    def test_server_stack_still_applies(self):
        """Async requests run the same server-side layers."""
        from repro import EnvironmentConstraints
        world, servers, clients, invoker = build()
        ref = servers.export(
            Account(1), constraints=EnvironmentConstraints(
                concurrency=True))
        future = invoker.call(ref, "deposit", "not-an-int")
        world.settle()
        from repro.errors import TypeCheckError
        with pytest.raises(TypeCheckError):
            future.result()

    def test_lost_reply_hits_deadline_not_hang(self):
        world = World(seed=31, latency=FixedLatency(5.0),
                      drop_probability=0.95)
        world.node("org", "s")
        world.node("org", "c")
        servers = world.capsule("s", "srv")
        clients = world.capsule("c", "cli")
        invoker = AsyncInvoker(world.binder_for(clients), clients)
        ref = servers.export(Counter())
        future = invoker.call(ref, "increment",
                              qos=QoS(deadline_ms=200.0))
        world.settle()
        assert future.done  # resolved either way: result or deadline
