"""C24 — Read scaling for hot objects: leases, caching, follower reads.

Claim (sections 2.3 and 5): the expensive general mechanism — every
interrogation a full remote invocation — is only the *default*; an
interface whose traffic is read-mostly can be promoted to a cheaper
regime without changing its clients.  ``repro.lease`` is that regime:
replicas serve follower reads, and clients cache results under
epoch-of-validity leases whose invalidation fan-out keeps staleness
inside the TTL.  Two measurements:

  * **Read scaling.**  A 3-way replicated kv group serves fleets of 1,
    4 and 16 client nodes, each driving the same Zipfian read sequence
    with a fixed 1-in-50 write rate, uncached vs cached.  The simulator
    executes serially, so aggregate throughput is *derived* from the
    measured per-node load (the C14/C21 discipline): the busiest node
    bounds the fleet's makespan, so speedup = total reads / busiest
    node's reads — cache hits are load on the *client's* node, misses
    and follower reads land on the members.  Expected: uncached plateaus
    at ~3x (three replicas is the ceiling follower reads alone reach),
    cached scales with the client count because hot reads never leave
    their node — >= 3x the uncached aggregate at 16 clients.

  * **Invalidation storm (worst case).**  The flip side of promotion:
    16 caches all hold the same hot key and a burst of writes lands on
    it.  Every write fans one post to every live holder (O(writes x
    holders) messages), every cache refetches, and the skipped-fill
    guard makes reconvergence take *two* read rounds (the first refill
    races the pending record).  The storm table prints the measured
    fan-out, refetch misses and reconvergence time — the cost whoever
    registers an interface for caching weighs against the read-side
    savings.
"""

from repro import ReplicationSpec, operation
from repro.runtime import World

from benchmarks import workloads
from benchmarks.workloads import zipf_keys

ZIPF_S = 0.9
KEYS = 40
READS_PER_CLIENT = 100
WRITE_EVERY = 50          # one write per 50 reads, fleet-wide
CLIENTS = (1, 4, 16)
TTL_MS = 10_000.0
GROUP_ID = "bench.kv"


class KvStore(workloads.KvStore):
    """The benchmarks' store with a readonly ``size`` operation, so its
    interface is the one these figures were measured with."""

    @operation(returns=[int], readonly=True)
    def size(self):
        return len(self.data)


def _fleet(clients, cached, seed=24):
    """A 3-member replicated group plus *clients* caching client nodes."""
    world = World(seed=seed)
    members = ("m1", "m2", "m3")
    names = [f"c{i}" for i in range(clients)]
    for name in members + tuple(names):
        world.node("bench", name)
    capsules = [world.capsule(n, "srv") for n in members]
    domain = world.domain("bench")
    group, gref = domain.groups.create(
        KvStore, capsules,
        ReplicationSpec(replicas=3, policy="active", reply_quorum=2),
        group_id=GROUP_ID)
    if cached:
        domain.leases.register(GROUP_ID, ttl_ms=TTL_MS)
    proxies = []
    for name in names:
        app = world.capsule(name, "app")
        domain.leases.attach_client(app.nucleus)
        proxy = world.binder_for(app).bind(gref)
        layer = next(la for la in proxy._channel.layers
                     if getattr(la, "name", "") == "replication")
        layer.follower_reads = True  # both regimes spread their misses
        proxies.append(proxy)
    return world, domain, capsules, proxies


def _member_load(capsules):
    return {
        capsule.nucleus.node_address: sum(
            interface.invocations_served
            for interface in capsule.interfaces.values())
        for capsule in capsules}


def _run(clients, cached):
    world, domain, capsules, proxies = _fleet(clients, cached)
    # Every client follows its own Zipfian stream (the same hot set,
    # not the same sequence); the writer picks keys uniformly.
    streams = [zipf_keys(world, ZIPF_S, KEYS, READS_PER_CLIENT,
                         f"bench:zipf:{i}") for i in range(clients)]
    wrng = world.fork_rng("bench:writes")
    proxies[0].put("seed-key", "v")  # group warm-up, outside the window

    base_load = _member_load(capsules)
    base_hits = {i: c.hits for i, c in
                 enumerate(domain.leases.clients.values())}
    start = world.now
    reads = writes = 0
    for step in range(READS_PER_CLIENT):
        for proxy, stream in zip(proxies, streams):
            proxy.get(stream[step])
            reads += 1
            if reads % WRITE_EVERY == 0:
                proxies[0].put(f"k{wrng.randint(0, KEYS - 1)}",
                               f"v{reads}")
                writes += 1
    world.settle()
    op_ms = (world.now - start) / reads

    served = {node: load - base_load[node]
              for node, load in _member_load(capsules).items()}
    for i, client in enumerate(domain.leases.clients.values()):
        hits = client.hits - base_hits.get(i, 0)
        if hits:
            served[client.holder] = hits
    busiest = max(served.values())
    speedup = reads / busiest
    rate_per_s = speedup * (1000.0 / op_ms)
    cache = domain.leases.clients
    return {"clients": clients, "cached": cached, "reads": reads,
            "writes": writes, "op_ms": op_ms, "busiest": busiest,
            "speedup": speedup, "rate_per_s": rate_per_s,
            "hits": sum(c.hits for c in cache.values()),
            "posts": domain.leases.invalidations_posted}


def _storm():
    """Worst case: a write burst against a fully-replicated hot key."""
    world, domain, capsules, proxies = _fleet(16, cached=True)
    hot, burst = "hot", 20
    proxies[0].put(hot, "v0")
    for proxy in proxies:   # populate every cache
        proxy.get(hot)
    world.settle()
    authority = domain.leases
    clients = list(authority.clients.values())
    posts0 = authority.invalidations_posted
    misses0 = sum(c.misses for c in clients)

    start = world.now
    for i in range(burst):
        proxies[0].put(hot, f"v{i + 1}")
    world.settle()
    fanout = authority.invalidations_posted - posts0

    # Reconvergence: read rounds until every cache hits again.  The
    # first refill is skipped (the pending record for the burst is
    # still undrained at that contact), so it takes two rounds.
    rounds = 0
    while rounds < 5:
        rounds += 1
        values = {proxy.get(hot) for proxy in proxies}
        assert values == {f"v{burst}"}  # never a stale or torn read
        if all(c.entries for c in clients):
            break
    reconverge_ms = world.now - start
    refetches = sum(c.misses for c in clients) - misses0
    return {"holders": len(clients), "burst": burst, "fanout": fanout,
            "refetches": refetches, "rounds": rounds,
            "reconverge_ms": reconverge_ms,
            "skipped_fills": sum(c.skipped_fills for c in clients)}


def claim():
    by = {(clients, cached): _run(clients, cached)
          for clients in CLIENTS for cached in (False, True)}
    gain_16 = by[(16, True)]["rate_per_s"] / by[(16, False)]["rate_per_s"]
    spread_16 = by[(16, True)]["speedup"] / by[(16, False)]["speedup"]
    # The promotion claim: at 16 caching clients the derived aggregate
    # read throughput at least triples the uncached regime's.
    assert gain_16 >= 3.0, gain_16
    # Load-spread alone doubles (misses and the 1-in-50 writes still
    # land on the members); the rest of the gain is hits being cheap.
    assert spread_16 >= 2.0, spread_16
    # Caching must not *reduce* scaling at any size.
    for clients in CLIENTS:
        assert (by[(clients, True)]["rate_per_s"]
                >= by[(clients, False)]["rate_per_s"]), clients
    # The fixed write rate really ran, and invalidations really fanned.
    assert by[(16, True)]["writes"] == by[(16, False)]["writes"] > 0
    assert by[(16, True)]["posts"] > 0

    storm = _storm()
    assert storm["fanout"] == storm["burst"] * storm["holders"]
    assert storm["refetches"] >= storm["holders"]
    assert storm["rounds"] <= 2
    return {"read_scaling": {
                f"{clients} clients {'cached' if cached else 'uncached'}":
                row for (clients, cached), row in by.items()},
            "aggregate_gain_at_16_clients": gain_16,
            "load_spread_gain_at_16_clients": spread_16,
            "invalidation_storm": storm}, {}
