"""Shared fixtures: a world factory and reference ADT implementations."""

from __future__ import annotations

import gc

import pytest

from repro import OdpObject, Signal, World, operation
from repro.comp.reference import InterfaceRef
from repro.engine.channel import TransportLayer
from repro.relocation.layer import RelocationLayer
from repro.util.freeze import FrozenRecord


class Counter(OdpObject):
    """Minimal stateful ADT."""

    def __init__(self, start: int = 0) -> None:
        self.value = start

    @operation(returns=[int])
    def increment(self):
        self.value += 1
        return self.value

    @operation(params=[int], returns=[int])
    def add(self, n):
        self.value += n
        return self.value

    @operation(returns=[int], readonly=True)
    def read(self):
        return self.value


class Account(OdpObject):
    """The paper's running example: a bank account ADT."""

    def __init__(self, balance: int = 0) -> None:
        self.balance = balance

    @operation(params=[int], returns=[int])
    def deposit(self, amount):
        if amount < 0:
            raise Signal("invalid_amount")
        self.balance += amount
        return self.balance

    @operation(params=[int], returns=[int],
               errors={"overdrawn": [int], "invalid_amount": []})
    def withdraw(self, amount):
        if amount < 0:
            raise Signal("invalid_amount")
        if amount > self.balance:
            raise Signal("overdrawn", self.balance)
        self.balance -= amount
        return self.balance

    @operation(returns=[int], readonly=True)
    def balance_of(self):
        return self.balance


class KvStore(OdpObject):
    """A small replicated-state workhorse."""

    def __init__(self) -> None:
        self.data = {}

    @operation(params=[str, str])
    def put(self, key, value):
        self.data[key] = value

    @operation(params=[str], returns=[str], readonly=True)
    def get(self, key):
        return self.data.get(key, "")

    @operation(returns=[int], readonly=True)
    def size(self):
        return len(self.data)


class Echo(OdpObject):
    """Pass-through service for marshalling tests."""

    @operation(params=["any"], returns=["any"])
    def echo(self, value):
        return value

    @operation(params=["any"], announcement=True)
    def fire(self, value):
        self.last = value


def deep_freeze(value):
    """An immutable equivalent of *value*, all the way down: lists and
    tuples become tuples, sets frozensets, dicts :class:`FrozenRecord`."""
    if isinstance(value, (list, tuple)):
        return tuple(deep_freeze(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return frozenset(deep_freeze(item) for item in value)
    if isinstance(value, dict):
        return FrozenRecord({key: deep_freeze(item)
                             for key, item in value.items()})
    return value


def with_paths(ref, paths, epoch=None):
    """*ref* with other access paths (and, given one, another epoch)."""
    return InterfaceRef(ref.interface_id, ref.signature, tuple(paths),
                        ref.epoch if epoch is None else epoch,
                        ref.context, ref.group)


def queued(scheduler):
    """How many events *scheduler* holds that are not cancelled."""
    return sum(not event.cancelled for _, _, event in scheduler._queue)


def live_bindings(nucleus):
    """How many ``TransportLayer`` and ``RelocationLayer`` objects of
    bindings opened from *nucleus* are alive once garbage is collected:
    what a binding that is kept, and no other, leaves behind."""
    gc.collect()
    transports = relocations = 0
    for obj in gc.get_objects():
        if isinstance(obj, TransportLayer):
            transports += obj.nucleus is nucleus
        elif isinstance(obj, RelocationLayer) and obj.channel is not None:
            relocations += obj.channel.client_nucleus is nucleus
    return transports, relocations


@pytest.fixture
def world():
    return World(seed=42)


@pytest.fixture
def single_domain(world):
    """One domain, two nodes, server + client capsules."""
    world.node("org", "server-node")
    world.node("org", "client-node")
    servers = world.capsule("server-node", "servers")
    clients = world.capsule("client-node", "clients")
    return world, world.domain("org"), servers, clients


@pytest.fixture
def trio_domain(world):
    """One domain, three server nodes and a client node."""
    for name in ("n1", "n2", "n3", "client-node"):
        world.node("org", name)
    capsules = [world.capsule(n, "srv") for n in ("n1", "n2", "n3")]
    clients = world.capsule("client-node", "clients")
    return world, world.domain("org"), capsules, clients


@pytest.fixture
def two_domains(world):
    """Two linked domains with heterogeneous wire formats."""
    world.node("alpha", "a1", "packed")
    world.node("alpha", "a2", "packed")
    world.node("beta", "b1", "tagged")
    world.link_domains("alpha", "beta")
    return world, world.domain("alpha"), world.domain("beta")
