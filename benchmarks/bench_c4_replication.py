"""C4 — Replication masks failure; ordering keeps replicas consistent.

Claims (section 5.3): a replica group appears to the client "as if [it]
were a singleton, but with increased reliability or availability"; "all
the members process invocations from clients in the same order"; the
ordering protocol "should be tolerant of failures in members of the
group and of changes of membership".

Series produced:
  * write cost vs. group size n in {1, 3, 5, 7} (ordering is not free),
  * availability under crashes: n=5 group, members crashed one at a
    time mid-workload; operations completed vs. members lost,
  * read scaling with the read_spread policy.
Expected shape: write cost grows with n; the group serves 100% of
operations while any member survives; replicas stay byte-identical.
"""

from repro import ReplicationSpec

from benchmarks.workloads import KvStore, n_node_world

WRITES = 50


def _build(n, policy="active", quorum=1):
    world, capsules, clients = n_node_world(n)
    domain = world.domain("org")
    group, gref = domain.groups.create(
        KvStore, capsules, ReplicationSpec(replicas=n, policy=policy,
                                           reply_quorum=quorum))
    proxy = world.binder_for(clients).bind(gref)
    return world, domain, group, proxy


def _write_burst(proxy, count=WRITES):
    for i in range(count):
        proxy.put(f"k{i % 7}", str(i))


def claim():
    costs = {}
    for n in (1, 3, 5, 7):
        world, domain, group, proxy = _build(n)
        start = world.now
        _write_burst(proxy)
        costs[n] = (world.now - start) / WRITES
    assert costs[7] > costs[1]  # ordering + relay is not free
    assert costs[3] > costs[1]

    world, domain, group, proxy = _build(5)
    completed, total = 0, 0
    waves = []
    for wave in range(5):
        for i in range(10):
            total += 1
            try:
                proxy.put(f"w{wave}", str(i))
                completed += 1
            except Exception:
                pass
        live = group.view.live_members()
        if len(live) > 1:
            world.crash_node(live[0].node)  # kill the sequencer
        waves.append({"writes_ok": completed, "writes": total,
                      "live": len(group.view.live_members()),
                      "view": group.view.number})
    assert completed == total  # availability maintained to the last member

    world, domain, group, proxy = _build(3)
    for i in range(30):
        proxy.put("shared", str(i))
    states = []
    for member in group.view.members:
        capsule, interface = domain.groups._plumbing[
            (group.group_id, member.index)]
        states.append(dict(interface.implementation.data))
    assert states[0] == states[1] == states[2]

    reads = {}
    for n in (1, 3, 5):
        world, domain, group, proxy = _build(n, policy="read_spread")
        proxy.put("k", "v")
        start = world.now
        for _ in range(60):
            proxy.get("k")
        reads[n] = (world.now - start) / 60
    return {"virtual_ms_per_write": costs,
            "availability_n5_per_wave": waves,
            "read_spread_virtual_ms_per_read": reads}, {}
