"""C9 — Federation interception is economical (sections 4.2, 5.6).

Claims: boundaries need gateways that "enforce the security and
accounting policies of each organization" and "translat[e] between
differences in protocol"; "for interception to be economical, there must
be a commonly accepted standard for interworking" — i.e. the cost of
crossing must be a bounded constant factor, not a cliff.

Series produced:
  * intra-domain vs cross-domain invocation cost (messages + virtual
    time), homogeneous and heterogeneous wire formats,
  * cost vs federation route length (1..4 domains traversed),
  * the administrative component: guarded + principal-mapped crossing
    vs unguarded crossing.
Expected shape: one boundary adds roughly one gateway hop (~1.5-2x);
each further domain adds another constant increment; format translation
is absorbed by the gateway (no client-visible failure).
"""

from repro.runtime import World

from benchmarks.workloads import Counter

CALLS = 30


def _pair(formats=("packed", "packed")):
    world = World(seed=4)
    # The first node of A hosts its primary gateway; the server lives on
    # a different node so the boundary hop is visible in the counts.
    world.node("A", "a-gateway", formats[0])
    world.node("A", "a-server", formats[0])
    world.node("A", "a-client", formats[0])
    world.node("B", "b-client", formats[1])
    world.link_domains("A", "B")
    servers = world.capsule("a-server", "srv")
    ref = servers.export(Counter())
    local = world.binder_for(world.capsule("a-client", "cli")).bind(ref)
    foreign = world.binder_for(world.capsule("b-client", "cli")).bind(ref)
    return world, local, foreign


def _chain(length):
    world = World(seed=4)
    for i in range(length + 1):
        fmt = "packed" if i % 2 == 0 else "tagged"
        world.node(f"dom{i}", f"n{i}", fmt)
    for i in range(length):
        world.link_domains(f"dom{i}", f"dom{i + 1}")
    servers = world.capsule(f"n{length}", "srv")
    ref = servers.export(Counter())
    client = world.binder_for(world.capsule("n0", "cli")).bind(ref)
    return world, client


def _measure(world, proxy, calls=CALLS):
    start, msgs = world.now, world.network.total_messages
    for _ in range(calls):
        proxy.increment()
    return ((world.now - start) / calls,
            (world.network.total_messages - msgs) / calls)


def claim():
    boundary = {}
    for label, formats in (("homogeneous", ("packed", "packed")),
                           ("heterogeneous", ("packed", "tagged"))):
        world, local, foreign = _pair(formats)
        local_ms, local_msgs = _measure(world, local)
        foreign_ms, foreign_msgs = _measure(world, foreign)
        boundary[label] = {"intra_ms": local_ms, "intra_msgs": local_msgs,
                           "cross_ms": foreign_ms,
                           "cross_msgs": foreign_msgs,
                           "factor": foreign_ms / local_ms}
        # Economical: crossing costs a bounded constant factor.
        assert foreign_ms > local_ms
        assert foreign_ms < local_ms * 4
        assert foreign_msgs == local_msgs + 2  # exactly one gateway hop

    costs, route = {}, {}
    for length in (1, 2, 3, 4):
        world, client = _chain(length)
        costs[length], msgs = _measure(world, client)
        route[length] = {"ms": costs[length], "msgs_per_call": msgs}
    increments = [costs[n + 1] - costs[n] for n in (1, 2, 3)]
    assert all(i > 0 for i in increments)
    # Roughly constant increment per domain (within 3x of each other).
    assert max(increments) < 3 * min(increments)
    return {"one_boundary": boundary, "by_boundaries_crossed": route,
            "increment_ms_per_extra_domain": increments}, {}
