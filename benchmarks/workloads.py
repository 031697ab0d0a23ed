"""Shared workloads and helpers of the claim scripts.

The paper ("The Challenge of ODP", 1991) is a position paper with no
tables or figures; each ``benchmarks/bench_c*.py`` regenerates one of
its *prose* engineering claims as a measured series (see DESIGN.md's
experiment index and EXPERIMENTS.md).  Its ``claim()`` builds the
worlds, asserts the claim's shape and returns the series as data;
``python -m benchmarks.claims`` runs them all.
"""

from __future__ import annotations

import bisect
from itertools import accumulate

from repro import OdpObject, Signal, World, operation


class Counter(OdpObject):
    def __init__(self, start: int = 0) -> None:
        self.value = start

    @operation(returns=[int])
    def increment(self):
        self.value += 1
        return self.value

    @operation(returns=[int], readonly=True)
    def read(self):
        return self.value


class Account(OdpObject):
    def __init__(self, balance: int = 0) -> None:
        self.balance = balance

    @operation(params=[int], returns=[int])
    def deposit(self, amount):
        self.balance += amount
        return self.balance

    @operation(params=[int], returns=[int], errors={"overdrawn": [int]})
    def withdraw(self, amount):
        if amount > self.balance:
            raise Signal("overdrawn", self.balance)
        self.balance -= amount
        return self.balance

    @operation(returns=[int], readonly=True)
    def balance_of(self):
        return self.balance


class KvStore(OdpObject):
    def __init__(self) -> None:
        self.data = {}

    @operation(params=[str, str])
    def put(self, key, value):
        self.data[key] = value

    @operation(params=[str], returns=[str], readonly=True)
    def get(self, key):
        return self.data.get(key, "")


class Echo(OdpObject):
    @operation(params=["any"], returns=["any"])
    def echo(self, value):
        return value


def zipf_keys(world, exponent, keys, count, label):
    """*count* keys ``k0`` .. ``k<keys - 1>``, key *i* drawn with weight
    ``1 / (i + 1) ** exponent`` from the world's random stream *label*."""
    weights = [1.0 / ((i + 1) ** exponent) for i in range(keys)]
    total = sum(weights)
    cdf = [acc / total for acc in accumulate(weights)]
    rng = world.fork_rng(label)
    return [f"k{bisect.bisect_left(cdf, rng.uniform(0.0, 1.0))}"
            for _ in range(count)]


def two_node_world(seed: int = 1, **kwargs) -> tuple:
    """(world, server_capsule, client_capsule) on separate nodes."""
    world = World(seed=seed, **kwargs)
    world.node("org", "server-node")
    world.node("org", "client-node")
    return (world,
            world.capsule("server-node", "servers"),
            world.capsule("client-node", "clients"))


def n_node_world(n: int, seed: int = 1, **kwargs) -> tuple:
    """(world, [server capsules], client_capsule)."""
    world = World(seed=seed, **kwargs)
    capsules = []
    for i in range(n):
        world.node("org", f"node-{i}")
        capsules.append(world.capsule(f"node-{i}", "servers"))
    world.node("org", "client-node")
    clients = world.capsule("client-node", "clients")
    return world, capsules, clients
