"""C21 — Sharded object space: aggregate throughput and rebalance MTTR.

Claim (sections 3 and 5.4): distribution lets a service exceed any
single node's capacity — "migration of programs or data to balance
loads" — but only if placement spreads the keyspace and ownership can
move *while the service runs*.  The ``repro.shard`` space makes both
measurable:

  * **Scaling.**  A keyed store partitioned over 256 shards is placed
    on fleets of 4, 16 and 64 nodes; a Zipfian client (s=0.7 over 800
    keys — skewed, as real keyspaces are) drives the same operation
    sequence at each size.  The simulator executes serially, so
    aggregate throughput is *derived* from the measured per-node load:
    the fleet's makespan is bottlenecked by its busiest node, so
    parallel speedup = total ops / max per-node ops (the C14 discipline
    of measuring the scaling *shape*, not laptop wall-clock).  Expected:
    near-linear 4 -> 16 (>= 3x), then the hot-key ceiling appears by 64
    — the largest key's owner bounds the makespan no matter how many
    nodes join, the classic skew limit consistent hashing cannot remove.

  * **Rebalance under load.**  An 8-node fleet serves the same Zipfian
    traffic while membership churns mid-stream: a node joins, the
    busiest node gracefully drains, a node crashes and its shards are
    re-instated from checkpoints.  The space's write-execution ledger
    then proves the safety claim: every acknowledged increment executed
    exactly once, on the owner of record, through every cutover — and
    the per-move degraded windows (detection-inclusive for the crash)
    are the measured rebalance MTTR.
"""

from repro.check.workload import ShardStore
from repro.comp.invocation import QoS
from repro.errors import OdpError
from repro.runtime import World

from benchmarks.workloads import zipf_keys

SHARDS = 256
VNODES = 128
ZIPF_S = 0.7
KEYS = 800
OPS = 800
FLEETS = (4, 16, 64)


def _fleet(nodes, seed=21, shards=SHARDS):
    world = World(seed=seed)
    names = [f"s{i}" for i in range(nodes)]
    for name in names + ["cli"]:
        world.node("bench", name)
    capsules = [world.capsule(name, "srv") for name in names]
    app = world.capsule("cli", "app")
    space = world.domain("bench").shards.create(
        "grid", ShardStore, capsules, shards=shards, vnodes=VNODES)
    return world, space, space.bind(app)


def _scaling_series():
    series = []
    for nodes in FLEETS:
        world, space, proxy = _fleet(nodes)
        keys = zipf_keys(world, ZIPF_S, KEYS, OPS, "bench:zipf")
        start = world.now
        served = {}
        for key in keys:
            owner = space.owner_of(key)
            proxy.incr(key)
            served[owner] = served.get(owner, 0) + 1
        op_ms = (world.now - start) / OPS
        busiest = max(served.values())
        speedup = OPS / busiest
        # Derived aggregate rate: each node replays its share of the
        # measured per-op latency; the busiest node's lane is the
        # fleet's makespan.
        rate_per_s = speedup * (1000.0 / op_ms)
        series.append({"nodes": nodes, "op_ms": op_ms,
                       "busiest": busiest, "loaded": len(served),
                       "speedup": speedup, "rate_per_s": rate_per_s})
    return series


def _churn_run():
    """The same traffic while membership churns; returns the evidence."""
    world, space, proxy = _fleet(8, seed=23)
    space.record_executions = True
    proxy = space.bind(world.capsule("cli", "app2"),
                       qos=QoS(deadline_ms=300.0, retries=4))
    keys = zipf_keys(world, ZIPF_S, KEYS, 600, "bench:zipf")
    model = {}
    ambiguous = {}
    crash_at = None
    for index, key in enumerate(keys):
        if index == 200:
            world.node("bench", "s8")
            space.rebalancer.node_joined(world.capsule("s8", "srv"))
        if index == 350:
            busiest = max(space.per_node(), key=space.per_node().get)
            space.rebalancer.node_left(busiest)
        if index == 450:
            world.crash_node(space.owners[0])
            crash_at = world.now
        if index == 500:
            dead = space.owners[0]
            space.rebalancer.node_left(dead, dead=True,
                                       down_since=crash_at)
            world.restart_node(dead)
        try:
            proxy.incr(key)
            model[key] = model.get(key, 0) + 1
        except OdpError:
            ambiguous[key] = ambiguous.get(key, 0) + 1
    finals = {key: proxy.get(key) for key in sorted(model)}
    return world, space, model, ambiguous, finals


def claim():
    series = _scaling_series()
    by_nodes = {row["nodes"]: row for row in series}
    gain_4_16 = by_nodes[16]["speedup"] / by_nodes[4]["speedup"]
    gain_16_64 = by_nodes[64]["speedup"] / by_nodes[16]["speedup"]
    # The scaling claim: quadrupling the fleet at least triples the
    # derived aggregate throughput under realistic skew.
    assert gain_4_16 >= 3.0, gain_4_16
    assert by_nodes[64]["speedup"] > by_nodes[16]["speedup"]
    # Routing cost must not degrade with fleet size (C14 discipline).
    assert by_nodes[64]["op_ms"] <= 2.0 * by_nodes[4]["op_ms"]

    world, space, model, ambiguous, finals = _churn_run()
    report = space.report()
    # Safety: every acknowledged write executed exactly once, on the
    # owner of record, across join + drain + crash-recovery cutovers.
    for key, final in finals.items():
        low = model[key]
        high = model[key] + ambiguous.get(key, 0)
        assert final is not None and low <= final <= high, \
            (key, low, final, high)
    seen = set()
    for entry in space.execution_log:
        assert entry["inv_id"] not in seen, entry
        seen.add(entry["inv_id"])
        assert entry["node"] == entry["owner"], entry
    assert report["migrations"] >= 1
    assert report["recoveries"] >= 1
    assert report["chases"] + report["stale_hits"] > 0
    assert space.rebalancer.failures == 0
    mttr = report["move_mttr_ms"]
    assert mttr["moves"] == len(space.mttr_ms) and mttr["max"] > 0.0
    return {"scaling_by_nodes": by_nodes,
            "speedup_gain_4_to_16": gain_4_16,
            "speedup_gain_16_to_64": gain_16_64,
            "churn_8_nodes": dict(report, acked=sum(model.values()),
                                  ambiguous=sum(ambiguous.values()))}, {}
