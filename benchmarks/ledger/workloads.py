"""The ledger's four closed-loop workloads.

Each workload is a fixed *unit* of work (a count of operations, never a
duration) that the runner repeats: one client, one thread, the next
request issued only after the previous reply.  A unit is a pure function
of ``(seed, scale)``, so every repetition — and every commit — produces
the same virtual-clock numbers and the same digest.

Only the stable façade is used: ``World``, ``Capsule.export``,
``Binder.bind``, ``run_seed`` and ``CheckConfig.with_*``.  The ADTs are
defined here so nothing under ``benchmarks/`` outside this package is
imported.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro import FrozenRecord, OdpObject, World, operation
from repro.check import CheckConfig, run_seed



@dataclass
class UnitResult:
    """What one unit did and observed."""

    ops: int = 0
    failed: int = 0
    #: Wall seconds of each slice of the request loop, in order.  A
    #: slice is the same work in every repetition, so the runner can
    #: take a robust statistic per slice.  Replies are checked and
    #: digested outside the slices.
    slice_s: List[float] = field(default_factory=list)
    #: Virtual ms per client request, one entry per *req*.
    virt_ms: List[float] = field(default_factory=list)
    #: Messages the simulated network carried during the unit.
    net_msgs: int = 0
    #: What ``run_digest`` hashes and repetitions must agree on: one
    #: digest per seed (check) or one over every reply (rpc).
    digests: List[str] = field(default_factory=list)


def _no_phase(name: str) -> None:
    """Default phase marker: the untraced run ignores phases."""


def _scaled(count: int, scale: float) -> int:
    return max(1, int(round(count * scale)))


class Account(OdpObject):
    def __init__(self) -> None:
        self.balance = 0

    @operation(params=[int], returns=[int])
    def deposit(self, amount):
        self.balance += amount
        return self.balance


class Store(OdpObject):
    def __init__(self) -> None:
        self.data = {}

    @operation(params=[str, "any"])
    def put(self, key, value):
        self.data[key] = value

    @operation(params=[str], returns=["any"], readonly=True)
    def get(self, key):
        return self.data[key]


def _two_nodes(seed: int, server_format: str):
    """A PACKED client node and a server node in *server_format*."""
    world = World(seed=seed)
    world.node("org", "server-node", native_format=server_format)
    world.node("org", "client-node")
    return (world, world.capsule("server-node", "servers"),
            world.capsule("client-node", "clients"))


class RpcSmall:
    """``Account.deposit(1)`` between two PACKED nodes, default binding.

    Why: the payload is negligible, so per-call fixed cost dominates —
    any instruction a layer adds per call shows here.
    """

    name = "rpc_small"
    op_noun = "inv"
    #: Invocations made on each fresh world before the timed unit.
    WARMUP = 200

    SLICES = 80

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.ops_per_slice = _scaled(8000 // self.SLICES, scale)
        self.ops_per_unit = self.SLICES * self.ops_per_slice

    def setup(self) -> None:
        self.world, servers, clients = _two_nodes(self.seed, "packed")
        self.proxy = self.world.binder_for(clients).bind(
            servers.export(Account()))
        #: Client-side model of the running balance.
        self.balance = 0
        for _ in range(self.WARMUP):
            self.balance += 1
            self.proxy.deposit(1)

    fresh = setup

    def unit(self, phase: Callable[[str], None] = _no_phase) -> UnitResult:
        result = UnitResult(ops=self.ops_per_unit)
        deposit = self.proxy.deposit
        clock = self.world.clock
        virt = result.virt_ms
        replies = []
        before = self.world.traffic()["messages"]
        for _ in range(self.SLICES):
            started = time.perf_counter()
            for _ in range(self.ops_per_slice):
                t0 = clock.now
                replies.append(deposit(1))
                virt.append(clock.now - t0)
            result.slice_s.append(time.perf_counter() - started)
        result.net_msgs = self.world.traffic()["messages"] - before
        for reply in replies:
            self.balance += 1
            if reply != self.balance:
                result.failed += 1
        result.digests = [hashlib.sha256(
            repr(replies).encode("utf-8")).hexdigest()]
        return result


def _thaw(value):
    """Replies arrive frozen (records, tuples); compare by content."""
    if isinstance(value, FrozenRecord):
        return {key: _thaw(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        return [_thaw(item) for item in value]
    return value


class RpcBulk:
    """``put``/``get`` of a ~6 KB nested value, PACKED client to TAGGED
    server (representation mismatch).

    Why: the codec does most of the work.  ``put`` is heavy on request
    encode and server decode, ``get`` on reply encode and client decode,
    so a codec gain for one direction that costs the other shows.
    """

    name = "rpc_bulk"
    op_noun = "inv"
    ROUNDS = 3
    SLICE_KEYS = 16
    #: Fewer than rpc_small's 200: at ~2 ms each, 200 warm-up calls per
    #: fresh world would spend a third of the run outside the timer.
    WARMUP = 40

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.keys = [f"key-{i:03d}" for i in range(_scaled(64, scale))]
        self.ops_per_unit = 2 * self.ROUNDS * len(self.keys)
        rng = random.Random(seed)
        #: values[round][key index]; generated once, reused by every rep.
        self.values = [[self._value(rng, rnd, i)
                        for i in range(len(self.keys))]
                       for rnd in range(self.ROUNDS)]

    @staticmethod
    def _value(rng: random.Random, rnd: int, index: int) -> Dict:
        rows = [{"id": row,
                 "name": f"row-{rng.randrange(10 ** 6)}",
                 "score": rng.random(),
                 "tags": [f"t{rng.randrange(100)}" for _ in range(3)],
                 "active": bool(rng.getrandbits(1))}
                for row in range(40)]
        return {"rev": rnd, "index": index, "rows": rows,
                "blob": rng.randbytes(1024)}

    def setup(self) -> None:
        self.world, servers, clients = _two_nodes(self.seed, "tagged")
        self.proxy = self.world.binder_for(clients).bind(
            servers.export(Store()))
        for i in range(self.WARMUP // 2):
            self.proxy.put("warm-up", self.values[0][i % len(self.keys)])
        for _ in range(self.WARMUP // 2):
            self.proxy.get("warm-up")

    fresh = setup

    def unit(self, phase: Callable[[str], None] = _no_phase) -> UnitResult:
        result = UnitResult(ops=self.ops_per_unit)
        put, get = self.proxy.put, self.proxy.get
        clock = self.world.clock
        virt = result.virt_ms
        replies = []
        before = self.world.traffic()["messages"]
        slices = [slice(i, i + self.SLICE_KEYS)
                  for i in range(0, len(self.keys), self.SLICE_KEYS)]
        phase("put")
        for values in self.values:
            for part in slices:
                started = time.perf_counter()
                for key, value in zip(self.keys[part], values[part]):
                    t0 = clock.now
                    put(key, value)
                    virt.append(clock.now - t0)
                result.slice_s.append(time.perf_counter() - started)
        phase("get")
        for _ in range(self.ROUNDS):
            for part in slices:
                started = time.perf_counter()
                for key in self.keys[part]:
                    t0 = clock.now
                    replies.append(get(key))
                    virt.append(clock.now - t0)
                result.slice_s.append(time.perf_counter() - started)
        phase("")
        result.net_msgs = self.world.traffic()["messages"] - before
        replies = [_thaw(reply) for reply in replies]
        expected = self.values[-1] * self.ROUNDS
        result.failed = sum(got != want
                            for got, want in zip(replies, expected))
        result.digests = [hashlib.sha256(
            repr(replies).encode("utf-8")).hexdigest()]
        return result


class _CheckSweep:
    """A sweep of the simulation tester over a fixed corpus of plan seeds.

    The corpus is the same for every ``--seed``: per-seed host cost
    varies by 25% (default) to 85% (composed) of its mean, so sweeps of
    corpora drawn from the seed would differ by more than any bound
    could allow, in any affordable run.  The seed sets the order the
    corpus is swept in.
    """

    op_noun = "seed"
    corpus = ()
    config = CheckConfig()

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.plan_seeds = list(
            self.corpus[:_scaled(len(self.corpus), scale)])
        random.Random(seed).shuffle(self.plan_seeds)
        self.ops_per_unit = len(self.plan_seeds)

    def setup(self) -> None:
        run_seed(self.plan_seeds[0], self.config)

    def fresh(self) -> None:
        """``run_seed`` builds its own world per seed."""

    def unit(self, phase: Callable[[str], None] = _no_phase) -> UnitResult:
        result = UnitResult(ops=self.ops_per_unit)
        digests = {}
        for plan_seed in self.plan_seeds:       # one slice per plan seed
            started = time.perf_counter()
            run = run_seed(plan_seed, self.config)
            result.slice_s.append(time.perf_counter() - started)
            if run.violations:
                result.failed += 1
            result.virt_ms.extend(event["t1"] - event["t0"]
                                  for event in run.events)
            result.net_msgs += run.end_state["messages"]
            digests[plan_seed] = run.digest
        # By plan seed: the digests name the corpus, not the sweep order.
        result.digests = [digests[s] for s in sorted(digests)]
        return result


class CheckDefault(_CheckSweep):
    """``run_seed`` under ``CheckConfig()``: 60-op plans under chaos.

    Why: the system's second user is the developer sweeping the
    simulation tester; exercises tx, groups, relocation, storage, gc and
    ``check`` itself, without heal.
    """

    name = "check_default"
    corpus = tuple(range(32))


class CheckComposed(_CheckSweep):
    """The same sweep with all six modes composed.

    Why: heal, ``Network.post`` and scheduler timers do most of the work
    — one-way posts and timers, not synchronous ``request`` — and it is
    the only workload that runs perf, shard, lease and overload.
    """

    name = "check_composed"
    #: The first eight plan seeds whose composed run ends before 5,000
    #: virtual ms (~1,000 heartbeats, ~0.1 s of host time).  One plan in
    #: four advances the clock to ~17,000 ms: the same mechanisms, five
    #: times the heartbeats, and a 0.5 s slice that a busy host never
    #: lets through clean — with those in the corpus the floor estimate
    #: of ``wall_us_per_op`` moved by 10% between runs, without them 2%.
    corpus = (0, 3, 4, 5, 7, 8, 9, 10)
    config = (CheckConfig().with_supervisor().with_batching()
              .with_partitions().with_shards().with_leases()
              .with_overload())


WORKLOADS = {cls.name: cls
             for cls in (RpcSmall, RpcBulk, CheckDefault, CheckComposed)}
