"""Shared workload definitions and report plumbing for the benchmarks.

The paper ("The Challenge of ODP", 1991) is a position paper with no
tables or figures; every benchmark here regenerates one of its *prose*
engineering claims as a measured series (see DESIGN.md's experiment
index and EXPERIMENTS.md).  Each bench both:

* exercises the claim under pytest-benchmark (wall-clock cost of the
  simulated mechanism), and
* computes the claim's series in *virtual* time / message counts and
  appends it to ``benchmarks/out/<id>.txt`` so the run leaves a
  human-readable artefact.
"""

from __future__ import annotations

import os
import time
from typing import List

from repro import OdpObject, Signal, World, operation

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


def as_report(benchmark, fn) -> None:
    """Run a claim-report builder exactly once under pytest-benchmark.

    Report tests validate the claim's *shape* in virtual time and write
    the series artefact; registering them as single-round benchmarks
    keeps them alive under ``--benchmark-only``.
    """
    benchmark.group = "claim reports"
    benchmark.pedantic(fn, rounds=1, iterations=1)


def write_report(experiment_id: str, title: str, lines: List[str]) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{experiment_id}.txt")
    with open(path, "w") as handle:
        handle.write(f"{experiment_id}: {title}\n")
        handle.write("=" * 72 + "\n")
        for line in lines:
            handle.write(line + "\n")
    return path


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


def rate_pair_us(fn_a, fn_b, rounds=1500, repeats=6):
    """Best-of-*repeats* per-call cost for two competing paths, with
    the timing windows interleaved A/B/A/B so CPU frequency drift and
    scheduler noise land on both arms alike; the minimum per arm
    estimates intrinsic cost."""
    fn_a()
    fn_b()  # warm both
    best_a = best_b = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(rounds):
            fn_a()
        best_a = min(best_a, time.perf_counter() - t0)
        t0 = time.perf_counter()
        for _ in range(rounds):
            fn_b()
        best_b = min(best_b, time.perf_counter() - t0)
    return (best_a / rounds * 1e6, best_b / rounds * 1e6)


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
