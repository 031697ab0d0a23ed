"""C20 — Invocation throughput: batching, codec plans, admission.

Claim (section 2): ODP exists because organisations federate at scale —
"very large numbers" of interacting objects.  A synchronous RPC per
interaction caps one client's throughput at the network round trip, so
an engineering answer to the paper's scale argument needs the classic
trio every production stack ships: adaptive batching (many invocations,
one message), memoised codec plans (marshal the envelope skeleton
once), and admission control (shed overload early and retryably instead
of queueing without bound).

Method, part 1 (throughput): N concurrent clients issue non-idempotent
increments against one server.  Two modes over the same seeded
workload: ``unbatched`` (one proxy call per invocation) and ``batched``
(BatchClient coalescing N concurrent calls per round; members are
encoded through memoised codec plans, like every request).  Series:
invocations per virtual second and p50/p99 per-invocation latency.  Batching trades a little latency
(a member waits for its batch-mates' demux) for multiplied throughput;
the ≥3x gain at 8 clients is asserted, not eyeballed.

Method, part 2 (saturation): an open-loop arrival process offers 2x the
server's admission rate directly to the admission controller — open
loop because concurrent clients' queue waits overlap in real time, so
they must NOT feed back into the arrival clock (a closed loop would
self-throttle and hide the divergence).  With a bounded queue the
controller sheds the excess and the admitted p99 wait stays under the
queue-bound ceiling; unbounded, the queue and waits grow linearly,
without bound, for as long as the overload lasts.
"""

import pytest

from repro import QoS
from repro.errors import ServerBusyError
from repro.ndr.plancache import PLANS
from repro.perf import AdmissionController, BatchClient, BatchPolicy
from repro.sim.clock import VirtualClock

from benchmarks.workloads import (
    Counter,
    as_report,
    two_node_world,
    write_report,
)

CLIENT_COUNTS = (1, 4, 8)
OPS_PER_CLIENT = 50
MODES = ("unbatched", "batched")

#: Saturation model: offered load is 2x the admission rate.
RATE_PER_S = 1000.0
BURST = 8
QUEUE_BOUND = 8
ARRIVALS = 400
ARRIVAL_INTERVAL_MS = 0.5  # 2000/s offered against 1000/s admitted


def _pct(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q / 100.0 * len(ordered)))]


def _run_throughput(clients_n, mode):
    world, servers, clients = two_node_world(seed=20)
    counter = Counter()
    ref = servers.export(counter)
    latencies = []
    start = world.now
    plan_hits = 0
    if mode == "unbatched":
        proxy = world.binder_for(clients).bind(ref)
        for _ in range(OPS_PER_CLIENT):
            for _ in range(clients_n):
                t0 = world.now
                proxy.increment()
                latencies.append(world.now - t0)
    else:
        batcher = BatchClient(
            clients, BatchPolicy(max_batch=clients_n, linger_ms=0.5))
        hits = PLANS.hits
        for _ in range(OPS_PER_CLIENT):
            t0 = world.now
            # N clients' concurrent calls coalesce; the Nth hits
            # max_batch and flushes the round synchronously.
            futures = [batcher.call(ref, "increment")
                       for _ in range(clients_n)]
            done = world.now
            for future in futures:
                future.result()
            latencies.extend([done - t0] * clients_n)
        plan_hits = PLANS.hits - hits
        assert plan_hits > 0  # the plan table really served the flushes
    total = clients_n * OPS_PER_CLIENT
    assert counter.value == total  # every mode executed exactly once
    elapsed_s = (world.now - start) / 1000.0
    return {
        "inv_s": total / elapsed_s,
        "p50": _pct(latencies, 50),
        "p99": _pct(latencies, 99),
        "plan_hits": plan_hits,
    }


def _run_saturation(bounded):
    clock = VirtualClock()
    admission = AdmissionController(
        clock, rate_per_s=RATE_PER_S, burst=BURST,
        max_queue=QUEUE_BOUND if bounded else None)
    waits = []
    depth_series = []
    for k in range(ARRIVALS):
        clock.advance(ARRIVAL_INTERVAL_MS)
        try:
            waits.append(admission.admit())
        except ServerBusyError:
            pass
        if (k + 1) % 100 == 0:
            depth_series.append((k + 1, round(admission.depth, 1)))
    return {
        "admitted": admission.admitted,
        "shed": admission.shed,
        "p50_wait": _pct(waits, 50),
        "p99_wait": _pct(waits, 99),
        "max_wait": max(waits),
        "max_depth": admission.max_depth,
        "depth_series": depth_series,
    }


def _run_overload_shedding():
    """End-to-end: a burst beyond the bounded queue sheds retryably
    through the real batch path, and nothing shed ever executed."""
    world, servers, clients = two_node_world(seed=20)
    counter = Counter()
    ref = servers.export(counter)
    world.nucleus("server-node").admission = AdmissionController(
        world.clock, rate_per_s=RATE_PER_S, burst=BURST,
        max_queue=QUEUE_BOUND)
    batcher = BatchClient(clients, BatchPolicy(max_batch=32),
                          qos=QoS(retries=0))
    futures = [batcher.call(ref, "increment") for _ in range(32)]
    batcher.flush()
    executed = shed = 0
    for future in futures:
        try:
            future.result()
            executed += 1
        except ServerBusyError:
            shed += 1
    assert executed == counter.value  # shed members never ran
    assert shed > 0
    return {"offered": 32, "executed": executed, "shed": shed}


@pytest.mark.parametrize("mode", MODES)
def test_c20_throughput_8_clients(benchmark, mode):
    benchmark.group = "C20 throughput, 8 concurrent clients"
    benchmark(lambda: _run_throughput(8, mode))


def test_c20_batching_gain_at_8_clients():
    """The headline acceptance bar: ≥3x invocations/sec."""
    unbatched = _run_throughput(8, "unbatched")
    batched = _run_throughput(8, "batched")
    assert batched["inv_s"] >= 3.0 * unbatched["inv_s"]


def test_c20_report(benchmark):
    as_report(benchmark, _report)


def _report():
    rows = [f"workload: {OPS_PER_CLIENT} rounds of N concurrent "
            f"increments, one server (seed 20); virtual-time series",
            "",
            f"{'clients':>7} {'mode':>15} {'inv/s':>9} "
            f"{'p50 ms':>8} {'p99 ms':>8}"]
    measured = {}
    for clients_n in CLIENT_COUNTS:
        for mode in MODES:
            row = _run_throughput(clients_n, mode)
            measured[(clients_n, mode)] = row
            rows.append(f"{clients_n:>7} {mode:>15} {row['inv_s']:>9.0f} "
                        f"{row['p50']:>8.2f} {row['p99']:>8.2f}")
    gain = (measured[(8, "batched")]["inv_s"]
            / measured[(8, "unbatched")]["inv_s"])
    # The acceptance bar: batching must multiply throughput, not shave
    # percents off it.
    assert gain >= 3.0
    rows.append("")
    rows.append(f"batched vs unbatched at 8 clients: {gain:.2f}x "
                f"invocations/sec "
                f"({measured[(8, 'batched')]['plan_hits']} codec "
                f"plan hits)")

    rows.append("")
    rows.append(f"saturation: {1000.0 / ARRIVAL_INTERVAL_MS:.0f}/s "
                f"offered against {RATE_PER_S:.0f}/s admitted "
                f"(2x, open loop, {ARRIVALS} arrivals)")
    rows.append(f"{'queue':>9} {'admitted':>9} {'shed':>6} "
                f"{'p99 wait':>9} {'max wait':>9} {'max depth':>10}")
    bounded = _run_saturation(bounded=True)
    unbounded = _run_saturation(bounded=False)
    for name, row in (("bounded", bounded), ("unbounded", unbounded)):
        rows.append(f"{name:>9} {row['admitted']:>9} {row['shed']:>6} "
                    f"{row['p99_wait']:>9.1f} {row['max_wait']:>9.1f} "
                    f"{row['max_depth']:>10.1f}")
    # Shedding keeps the admitted tail under the queue-bound ceiling...
    ceiling_ms = (QUEUE_BOUND + 1) / RATE_PER_S * 1000.0
    assert bounded["shed"] > 0
    assert bounded["p99_wait"] <= ceiling_ms
    assert bounded["max_depth"] <= QUEUE_BOUND + 1
    # ...while the unbounded queue admits everything and diverges:
    # depth grows monotonically for as long as the overload lasts.
    assert unbounded["shed"] == 0
    depths = [depth for _, depth in unbounded["depth_series"]]
    assert depths == sorted(depths) and depths[-1] > depths[0] * 2
    assert unbounded["max_wait"] > 10 * bounded["max_wait"]
    rows.append(f"unbounded depth over time: "
                + ", ".join(f"{n}:{d}" for n, d
                            in unbounded["depth_series"]))

    e2e = _run_overload_shedding()
    rows.append("")
    rows.append(f"end-to-end burst of {e2e['offered']} through the "
                f"batch path against the bounded queue: "
                f"{e2e['executed']} executed, {e2e['shed']} shed "
                f"retryably, zero shed executions")
    write_report("C20", "invocation throughput: adaptive batching, "
                        "codec plan caching, admission control "
                        "(section 2's scale argument)", rows)
