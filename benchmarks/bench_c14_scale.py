"""C14 — Scale and growth by interconnection (section 2).

Claims: ODP systems "scale to sizes larger than the telephone system";
"while initially ODP systems may be small, they will grow by
interconnection to other ODP systems"; development is "ad hoc: there
will not be a central design or management authority".

Obviously a laptop simulation cannot demonstrate telephone-system scale;
what it *can* measure is whether the architecture's per-element costs
stay flat as the deployment grows — the property that makes scaling by
interconnection plausible at all:

  * invocation cost vs node count (routing must not degrade),
  * export + bind cost vs population (registries must stay O(1) per
    entry),
  * growth by interconnection: domains federated into a ring one at a
    time, with cross-federation invocations working at every step and
    costing proportionally to route length only.
"""

import time

from repro.runtime import World

from benchmarks.workloads import Counter


def _flat_world(nodes):
    world = World(seed=6)
    for i in range(nodes):
        world.node("org", f"n{i}")
    return world


def claim():
    costs = {}
    for nodes in (4, 16, 64):
        world = _flat_world(nodes)
        servers = world.capsule(f"n{nodes - 1}", "srv")
        clients = world.capsule("n0", "cli")
        proxy = world.binder_for(clients).bind(servers.export(Counter()))
        start = world.now
        for _ in range(30):
            proxy.increment()
        costs[nodes] = (world.now - start) / 30
    # Flat: routing cost independent of population.
    assert abs(costs[64] - costs[4]) < 0.01

    wall = {}
    for population in (50, 200, 800):
        world = _flat_world(4)
        servers = world.capsule("n0", "srv")
        clients = world.capsule("n1", "cli")
        binder = world.binder_for(clients)
        begin = time.perf_counter()
        refs = [servers.export(Counter()) for _ in range(population)]
        proxies = [binder.bind(ref) for ref in refs]
        wall[f"export_bind_ms_each_population_{population}"] = \
            (time.perf_counter() - begin) * 1000 / population
        assert world.domain("org").relocator.known() == population

    world = World(seed=6)
    refs = {}
    ring = {}
    for i in range(8):
        name = f"org{i}"
        world.node(name, f"g{i}")
        servers = world.capsule(f"g{i}", "srv")
        refs[name] = servers.export(Counter())
        if i > 0:
            world.link_domains(f"org{i - 1}", name)
        # At every growth step, the *newest* organisation can reach the
        # very first one across the whole chain.
        clients = world.capsule(f"g{i}", "apps")
        proxy = world.binder_for(clients).bind(refs["org0"])
        start = world.now
        value = proxy.increment()
        ring[f"+{name}"] = {
            "boundaries": len(world.federation.route(name, "org0")) - 1,
            "virtual_ms": world.now - start}
        assert value == i + 1
    return {"virtual_ms_per_call_by_nodes": costs,
            "federated_ring_growth": ring}, wall
