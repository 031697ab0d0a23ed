"""C6 — Trading: scale, type-safe matching, federation (section 6).

Claims: "self-describing systems are more open-ended and scale better
than those which have a fixed external description"; clients are "only
told of service offers which provide at least the operations [they]
require"; federated traders cross-link into an arbitrary graph.

Series produced:
  * import latency vs offer-database size (10^1 .. 10^3 offers),
  * selectivity: matched offers under increasingly specific property
    constraints,
  * federated lookup cost vs trader-chain length 1..6.
Expected shape: lookup grows roughly linearly with database size and
chain length; type checking never returns a false match.
"""

import time

from repro import signature_of
from repro.runtime import World

from benchmarks.workloads import Account, Counter, two_node_world


def _stocked_trader(offers):
    world, servers, clients = two_node_world()
    domain = world.domain("org")
    regions = ("eu", "us", "ap")
    for i in range(offers):
        ref = servers.export(Counter())
        domain.trader.export(
            ref.signature, ref,
            properties={"cost": i % 50, "region": regions[i % 3],
                        "index": i})
    # A decoy population with a different type.
    for i in range(offers // 10 + 1):
        ref = servers.export(Account(0))
        domain.trader.export(ref.signature, ref,
                             properties={"cost": i})
    return world, domain


def _chain(length):
    world = World(seed=2)
    traders = []
    for i in range(length):
        name = f"dom{i}"
        world.node(name, f"n{i}")
        servers = world.capsule(f"n{i}", "srv")
        domain = world.domain(name)
        ref = servers.export(Counter())
        domain.trader.export(ref.signature, ref,
                             properties={"home": name})
        traders.append(domain.trader)
    for i in range(length - 1):
        traders[i].link(f"next", traders[i + 1])
    return traders


def claim():
    matches, wall = {}, {}
    requirement = signature_of(Counter)
    for offers in (10, 100, 1000):
        world, domain = _stocked_trader(offers)
        begin = time.perf_counter()
        replies = domain.trader.import_service(
            requirement, query="cost < 10 and region == 'eu'")
        wall[f"import_ms_{offers}_offers"] = \
            (time.perf_counter() - begin) * 1000
        matches[offers] = len(replies)
        # Type safety: no Account offer ever leaks into Counter results.
        assert all("increment" in r.ref.signature.operations
                   for r in replies)

    world, domain = _stocked_trader(300)
    selectivity = {
        query: len(domain.trader.import_service(requirement, query=query))
        for query in ("", "region == 'eu'", "region == 'eu' and cost < 5",
                      "region == 'eu' and cost < 5 and index > 250")}

    hops = {}
    for length in (1, 2, 4, 6):
        traders = _chain(length)
        replies = traders[0].import_service(
            requirement, query=f"home == 'dom{length - 1}'",
            max_hops=length)
        found = len(replies) == 1
        via = replies[0].via if replies else ()
        hops[length] = len(via)
        assert found
        assert len(via) == length - 1
    return {"matches_by_offers": matches,
            "matches_of_300_by_query": selectivity,
            "hops_by_chain_length": hops}, wall
