"""Reference ADTs the simulation-test explorer hammers, and how many.

Small, deliberately *checkable* objects: every one has a cheap readonly
observation the oracles use to compare end state against a client-side
model.  They live inside the package (not the test tree) so a shrunken
counterexample snippet is runnable from a bare ``PYTHONPATH=src``.
"""

from __future__ import annotations

from typing import Tuple

from repro.comp.model import OdpObject, operation
from repro.comp.outcomes import Signal

#: Fixed explorer topology: three server nodes plus one client node.
SERVER_NODES: Tuple[str, ...] = ("n1", "n2", "n3")
CLIENT_NODE = "cli"

#: The population every run places: ``c<i>`` counters, ``a<i>``
#: accounts opened at INITIAL_BALANCE, and one ``check.kv`` group of
#: GROUP_SIZE active replicas answering at REPLY_QUORUM over KEYS.
COUNTERS = 2
ACCOUNTS = 3
INITIAL_BALANCE = 100
GROUP_SIZE = 3
REPLY_QUORUM = 2
KEYS = ("k0", "k1", "k2", "k3", "k4", "k5")


class Counter(OdpObject):
    """Non-idempotent by construction: the exactly-once canary."""

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
    """The paper's bank account; the transfer workload's currency."""

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


class ShardStore(OdpObject):
    """Keyed counter: the sharded exactly-once canary.

    Every shard of a :class:`~repro.shard.space.ShardSpace` holds one of
    these; ``incr`` is non-idempotent so a double-execution during a
    migration window (or a write served by a non-owner) shows up in the
    per-key final value, not just in the routing log.
    """

    def __init__(self) -> None:
        self.data = {}

    @operation(params=[str], returns=[int])
    def incr(self, key):
        self.data[key] = self.data.get(key, 0) + 1
        return self.data[key]

    @operation(params=[str], returns=[int], readonly=True)
    def get(self, key):
        return self.data.get(key, 0)


class KvStore(OdpObject):
    """The replicated-state workhorse behind the object group."""

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
