"""Tests for multiple access protocols with distinct QoS (section 5.4).

"Different protocol access paths may exist either because of
heterogeneity in the system, or because different protocols provide
different qualities of service in terms of bandwidth, error handling and
so forth."
"""

import pytest

from repro import QoS
from repro.errors import ProtocolMismatchError
from repro.net.latency import LatencyModel
from repro.runtime import World
from tests.conftest import Echo, Counter


@pytest.fixture
def dual_protocol_world():
    """'rrp' is low-latency/low-bandwidth; 'bulk' the reverse."""
    world = World(seed=5, latency=LatencyModel(
        propagation_ms=1.0, bandwidth_bytes_per_ms=1_000.0))
    world.network.protocol_latency["bulk"] = LatencyModel(
        propagation_ms=20.0, bandwidth_bytes_per_ms=1_000_000.0)
    world.node("org", "server-node")
    world.node("org", "client-node")
    world.network.node("server-node").protocols.add("bulk")
    servers = world.capsule("server-node", "servers")
    clients = world.capsule("client-node", "clients")
    return world, servers, clients


class TestMultiProtocol:
    def test_reference_carries_one_path_per_protocol(
            self, dual_protocol_world):
        world, servers, clients = dual_protocol_world
        ref = servers.export(Echo())
        assert [p.protocol for p in ref.paths] == ["rrp", "bulk"]

    def test_default_uses_rrp(self, dual_protocol_world):
        world, servers, clients = dual_protocol_world
        proxy = world.binder_for(clients).bind(servers.export(Echo()))
        start = world.now
        proxy.echo("x")
        # 2 * (1ms propagation + tiny serialisation) + processing.
        assert world.now - start < 5.0

    def test_explicit_bulk_selection(self, dual_protocol_world):
        world, servers, clients = dual_protocol_world
        proxy = world.binder_for(clients).bind(servers.export(Echo()))
        start = world.now
        proxy.echo("x", _qos=QoS(protocol="bulk"))
        assert world.now - start >= 40.0  # 2 * 20ms propagation

    def test_bulk_wins_for_large_payloads(self, dual_protocol_world):
        world, servers, clients = dual_protocol_world
        proxy = world.binder_for(clients).bind(servers.export(Echo()))
        payload = "x" * 200_000

        start = world.now
        proxy.echo(payload)  # rrp: 1ms + 200kB at 1MB/s ≈ 200ms each way
        rrp_cost = world.now - start

        start = world.now
        proxy.echo(payload, _qos=QoS(protocol="bulk"))
        bulk_cost = world.now - start

        assert bulk_cost < rrp_cost  # the crossover the QoS choice buys

    def test_unsupported_protocol_rejected(self, dual_protocol_world):
        world, servers, clients = dual_protocol_world
        # The *client-node* capsule binds to a server without bulk.
        plain = world.capsule("client-node", "plain-server")
        ref = plain.export(Counter())
        consumer = world.binder_for(servers).bind(ref)
        with pytest.raises(ProtocolMismatchError):
            consumer.increment(_qos=QoS(protocol="bulk"))

    def test_protocol_specific_latency_model_is_used(
            self, dual_protocol_world):
        world, servers, clients = dual_protocol_world
        assert world.network._latency_for("bulk").propagation_ms == 20.0
        assert world.network._latency_for("rrp").propagation_ms == 1.0
        assert world.network._latency_for("unknown").propagation_ms == 1.0
