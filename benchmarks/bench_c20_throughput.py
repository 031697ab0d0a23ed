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

from repro import QoS
from repro.errors import ServerBusyError
from repro.ndr.plancache import PLANS
from repro.perf import AdmissionController, BatchClient, BatchPolicy
from repro.sim.clock import VirtualClock

from benchmarks.workloads import Counter, two_node_world

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


def claim():
    measured = {}
    for clients_n in CLIENT_COUNTS:
        for mode in MODES:
            measured[f"{clients_n} clients {mode}"] = _run_throughput(
                clients_n, mode)
    unbatched = measured["8 clients unbatched"]
    batched = measured["8 clients batched"]
    # The acceptance bar: batching must multiply throughput, not shave
    # percents off it.
    assert batched["inv_s"] >= 3.0 * unbatched["inv_s"]

    bounded = _run_saturation(bounded=True)
    unbounded = _run_saturation(bounded=False)
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

    return {"throughput": measured,
            "batching_gain_at_8_clients": batched["inv_s"]
            / unbatched["inv_s"],
            "saturation_2x": {"bounded": bounded, "unbounded": unbounded},
            "burst_through_batch_path": _run_overload_shedding()}, {}
