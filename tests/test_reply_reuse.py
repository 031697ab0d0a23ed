"""A channel reads a repeated large reply once (section 4.5: constant
state may be copied freely).

The transport keeps, per channel, reply bytes of at least
``REUSE_MIN_BYTES`` -> the termination the value lane decoded them to,
within ``REUSE_MAX_BYTES``.  What it must never do: answer a new value
with an old one, keep an error, keep a termination whose values went
through the marshaller, or grow past its budget.
"""

from __future__ import annotations

import pytest

from repro import OdpObject, World, operation
from repro.errors import ServerFaultError
from repro.ndr.formats import REUSE_MAX_BYTES, REUSE_MIN_BYTES, WireFormat
from tests.conftest import Counter, Echo


class Store(OdpObject):
    def __init__(self) -> None:
        self.data = {}

    @operation(params=[str, "any"])
    def put(self, key, value):
        self.data[key] = value

    @operation(params=[str], returns=["any"], readonly=True)
    def get(self, key):
        return self.data[key]

    @operation(params=[str], returns=["any"], readonly=True)
    def fail(self, why):
        raise RuntimeError(why)


def _large(rev: int):
    return {"rev": rev, "blob": bytes(range(256)) * 8, "rows": [
        {"id": row, "name": f"row-{row}"} for row in range(20)]}


@pytest.fixture(params=["packed", "tagged"])
def bound(request):
    """A proxy on a *format* server node, from a PACKED client node."""
    world = World(seed=5)
    world.node("org", "server-node", native_format=request.param)
    world.node("org", "client-node")
    servers = world.capsule("server-node", "servers")
    clients = world.capsule("client-node", "clients")
    return world, servers, clients


def _bind(bound, obj):
    world, servers, clients = bound
    return world.binder_for(clients).bind(servers.export(obj))


def _table(proxy):
    return proxy._channel.transport._replies


@pytest.fixture
def loads_calls(monkeypatch):
    """Every ``WireFormat.loads`` call, on either side of the wire."""
    calls = []
    original = WireFormat.loads

    def counting(self, data, values=None):
        calls.append(len(data))
        return original(self, data, values)

    monkeypatch.setattr(WireFormat, "loads", counting)
    return calls


def test_a_repeated_large_reply_is_decoded_once(bound, loads_calls):
    proxy = _bind(bound, Store())
    proxy.put("k", _large(1))
    del loads_calls[:]
    first = proxy.get("k")
    # The server's request and the client's reply.
    assert len(loads_calls) == 2 and loads_calls[1] >= REUSE_MIN_BYTES
    second = proxy.get("k")
    assert len(loads_calls) == 3  # the server's request only
    assert second is first
    assert second["rev"] == 1 and len(second["rows"]) == 20


def test_a_new_value_is_never_answered_with_the_old_one(bound):
    proxy = _bind(bound, Store())
    proxy.put("k", _large(1))
    assert proxy.get("k")["rev"] == 1
    proxy.put("k", _large(2))
    assert proxy.get("k")["rev"] == 2
    proxy.put("k", _large(1))
    assert proxy.get("k")["rev"] == 1  # a hit, and the right one
    assert len(_table(proxy)) == 2


def test_a_reply_under_the_floor_is_always_decoded(bound, loads_calls):
    proxy = _bind(bound, Store())
    proxy.put("k", "x" * 100)
    del loads_calls[:]
    for _ in range(3):
        assert proxy.get("k") == "x" * 100
    assert len(loads_calls) == 6
    assert all(size < REUSE_MIN_BYTES for size in loads_calls)
    assert not _table(proxy)


def test_a_reply_carrying_a_reference_is_decoded_every_time(
        bound, loads_calls):
    """References leave the value lane for the tree reader and the
    marshaller, which may import what they name: never reused."""
    _, servers, _ = bound
    proxy = _bind(bound, Echo())
    ref = servers.export(Counter())
    del loads_calls[:]
    for _ in range(2):
        got = proxy.echo((ref, bytes(2000)))
        assert got[0].interface_id == ref.interface_id
    assert len(loads_calls) == 4
    assert loads_calls[1] == loads_calls[3] >= REUSE_MIN_BYTES
    assert not _table(proxy)


def test_an_error_reply_is_never_kept(bound, loads_calls):
    proxy = _bind(bound, Store())
    why = "w" * (2 * REUSE_MIN_BYTES)
    del loads_calls[:]
    for _ in range(2):
        with pytest.raises(ServerFaultError):
            proxy.fail(why)
    assert len(loads_calls) == 4
    assert loads_calls[1] == loads_calls[3] >= REUSE_MIN_BYTES
    assert not _table(proxy)


def test_the_table_stays_within_its_byte_budget(bound):
    proxy = _bind(bound, Echo())
    transport = proxy._channel.transport
    blobs = [i.to_bytes(4, "big") * 512 for i in range(1000)]
    for blob in blobs:
        assert proxy.echo(blob) == blob
    table = _table(proxy)
    held = sum(len(reply) for reply in table)
    assert held == transport._replies_bytes <= REUSE_MAX_BYTES
    assert held > REUSE_MAX_BYTES - 2 * len(next(iter(table)))
    # Oldest out first: the newest are kept, in order; the first went.
    kept = [term.single() for term in table.values()]
    assert kept == blobs[-len(kept):] and len(kept) < len(blobs)
