"""C15 — Exploiting parallelism to overcome communication delays (§4.1).

Claim: "the ODP application programmer should also be prepared to
exploit parallelism to overcome communication delays and to make full
use of the multi-processing capability of a distributed system."

Series produced: total virtual time to collect N responses from N
servers, synchronously vs with split-phase futures, N in {1, 4, 16}.
Expected shape: synchronous cost grows linearly with N (round trips
serialise); overlapped cost stays near one round trip plus the server
processing sum — the gap *is* the communication delay parallelism buys
back.
"""

from repro.engine.futures import AsyncInvoker
from repro.net.latency import FixedLatency
from repro.runtime import World

from benchmarks.workloads import Counter

LATENCY_MS = 20.0


def _build(n):
    world = World(seed=8, latency=FixedLatency(LATENCY_MS))
    world.node("org", "hq")
    refs = []
    for i in range(n):
        world.node("org", f"s{i}")
        refs.append(world.capsule(f"s{i}", "srv").export(Counter()))
    apps = world.capsule("hq", "apps")
    binder = world.binder_for(apps)
    return world, binder, apps, refs


def _sync_fanout(world, binder, refs):
    start = world.now
    for ref in refs:
        binder.bind(ref).increment()
    return world.now - start


def _future_fanout(world, binder, apps, refs):
    invoker = AsyncInvoker(binder, apps)
    start = world.now
    futures = [invoker.call(ref, "increment") for ref in refs]
    world.settle()
    for future in futures:
        future.result()
    return world.now - start


def claim():
    numbers = {}
    results = {}
    for n in (1, 4, 16):
        world, binder, apps, refs = _build(n)
        sync_ms = _sync_fanout(world, binder, refs)
        world, binder, apps, refs = _build(n)
        future_ms = _future_fanout(world, binder, apps, refs)
        results[n] = (sync_ms, future_ms)
        numbers[f"N={n}"] = {"sync_ms": sync_ms, "futures_ms": future_ms,
                             "speedup": sync_ms / future_ms}
    # Shape: sync grows ~linearly; futures stay near one RTT.
    assert results[16][0] > 10 * results[1][0]
    assert results[16][1] < 3 * results[1][1]
    assert results[16][0] / results[16][1] > 5
    return numbers, {}
