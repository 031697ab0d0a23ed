"""Lease-based client caching (repro.lease): grants, invalidation,
bounded staleness, fencing, and the platform integrations.

The protocol under test: a read of a promoted interface fills a
per-node cache under a lease grant; writes fan invalidations out over
the real (lossy) network with pending-record repair at the next
authority contact; a holder that cannot renew self-fences at grant
expiry on the shared virtual clock.  The invariant everything here
circles is the staleness bound — no cached read may be staler than the
TTL past the superseding write's commit, no matter which messages die.
"""

from __future__ import annotations

import pytest

from repro import ReplicationSpec, World
from repro.check.workload import ShardStore
from repro.errors import CommunicationError
from repro.mgmt.placement import placement_candidates
from repro.mgmt.monitor import TransparencyMonitor
from tests.conftest import KvStore


def lease_world(seed=9):
    world = World(seed=seed)
    for name in ("n1", "n2", "n3", "cli"):
        world.node("org", name)
    capsules = {n: world.capsule(n, "srv") for n in ("n1", "n2", "n3")}
    app = world.capsule("cli", "app")
    return world, world.domain("org"), capsules, app


def cached_singleton(world, domain, capsules, app, ttl_ms=1000.0,
                     iid="lease.kv"):
    """One KvStore on n1, promoted to cached mode, with a caching
    client attached to the app node."""
    ref = capsules["n1"].export(KvStore(), interface_id=iid)
    domain.leases.register(iid, ttl_ms=ttl_ms)
    client = domain.leases.attach_client(app.nucleus)
    proxy = world.binder_for(app).bind(ref)
    return proxy, client, domain.leases


# ---------------------------------------------------------------------------
# Grants and expiry
# ---------------------------------------------------------------------------

class TestGrantsAndExpiry:
    def test_fill_hit_and_self_fence_at_expiry(self):
        world, domain, capsules, app = lease_world()
        proxy, client, authority = cached_singleton(
            world, domain, capsules, app, ttl_ms=500.0)
        proxy.put("k", "v1")

        assert proxy.get("k") == "v1"  # miss: real fetch, cache fill
        assert (client.misses, client.fills) == (1, 1)
        assert authority.grants_issued == 1

        before = world.now
        assert proxy.get("k") == "v1"  # hit: served locally
        assert client.hits == 1
        # A hit costs virtual time (it is on the clock) but no network.
        assert 0 < world.now - before < 1.0

        # Let the grant run out without renewal: the entry fences
        # itself and the next read refetches under a fresh grant.
        world.clock.advance(600.0)
        assert proxy.get("k") == "v1"
        assert client.expired >= 1
        assert authority.grants_issued == 2

    def test_unpromoted_interface_is_never_cached(self):
        world, domain, capsules, app = lease_world()
        ref = capsules["n1"].export(KvStore(), interface_id="raw.kv")
        client = domain.leases.attach_client(app.nucleus)
        proxy = world.binder_for(app).bind(ref)
        proxy.put("k", "v1")
        assert proxy.get("k") == "v1"
        assert proxy.get("k") == "v1"
        assert client.fills == 0 and client.hits == 0

    def test_writes_are_never_served_from_cache(self):
        world, domain, capsules, app = lease_world()
        proxy, client, _ = cached_singleton(world, domain, capsules, app)
        proxy.put("k", "v1")
        assert proxy.get("k") == "v1"
        proxy.put("k", "v2")  # a write: always a real invocation
        world.settle()
        assert proxy.get("k") == "v2"


# ---------------------------------------------------------------------------
# Invalidation
# ---------------------------------------------------------------------------

class TestInvalidation:
    def test_write_invalidates_cached_readers(self):
        world, domain, capsules, app = lease_world()
        proxy, client, authority = cached_singleton(
            world, domain, capsules, app, ttl_ms=5000.0)
        proxy.put("k", "v1")
        assert proxy.get("k") == "v1"
        assert client.fills == 1

        proxy.put("k", "v2")
        world.settle()  # deliver the one-way invalidation post
        assert client.invalidations >= 1
        assert proxy.get("k") == "v2"  # entry dropped: fresh fetch
        # That refetch contacted the authority while the pending record
        # for the same tag was still undrained, so the fill is skipped
        # (the fetched value could predate the recorded write)...
        assert client.skipped_fills == 1
        # ...and the *next* miss, with pending drained, fills for good.
        assert proxy.get("k") == "v2"
        assert client.fills == 2
        assert proxy.get("k") == "v2"
        assert client.hits == 1  # served from the refilled entry
        assert authority.invalidations_posted >= 1

    def test_group_commit_invalidates_under_group_id(self):
        world, domain, capsules, app = lease_world()
        group, gref = domain.groups.create(
            KvStore, [capsules[n] for n in ("n1", "n2", "n3")],
            ReplicationSpec(replicas=3, policy="active", reply_quorum=2),
            group_id="lg.kv")
        domain.leases.register("lg.kv", ttl_ms=5000.0)
        client = domain.leases.attach_client(app.nucleus)
        proxy = world.binder_for(app).bind(gref)
        layer = next(la for la in proxy._channel.layers
                     if getattr(la, "name", "") == "replication")
        layer.follower_reads = True

        proxy.put("k", "v1")
        assert proxy.get("k") == "v1"  # miss: follower read, then fill
        assert layer.read_spread_reads == 1
        assert proxy.get("k") == "v1"  # hit: no member touched at all
        assert layer.read_spread_reads == 1
        assert client.hits == 1

        proxy.put("k", "v2")  # quorum commit notes the write
        world.settle()
        assert proxy.get("k") == "v2"
        assert domain.leases.versions[("lg.kv", "k")] == 2

    def test_lost_post_is_repaired_at_renewal_within_bound(self):
        world, domain, capsules, app = lease_world()
        proxy, client, authority = cached_singleton(
            world, domain, capsules, app, ttl_ms=400.0)
        proxy.put("k", "v1")
        assert proxy.get("k") == "v1"

        world.faults.lose_next("n1", "cli")  # kill the inval post
        proxy.put("k", "v2")
        world.settle()
        assert client.invalidations == 0  # the fan-out really died

        # Within the bound the cache may serve the superseded value —
        # that is the bounded-staleness contract, not a bug.
        assert proxy.get("k") == "v1"

        # Past the grant's half-life the next hit renews, and the
        # renewal delivers the pending invalidation the post lost.
        world.clock.advance(250.0)
        assert proxy.get("k") == "v2"
        assert authority.pending_delivered >= 1
        # Never stale past the TTL: from here on it is v2 forever.
        world.clock.advance(500.0)
        assert proxy.get("k") == "v2"


# ---------------------------------------------------------------------------
# Fencing
# ---------------------------------------------------------------------------

class TestFencing:
    def test_partitioned_holder_fences_at_expiry_not_stale(self):
        """Pinned regression: a partitioned cache holder may serve its
        (bounded-stale) entries until its grant expires, and must then
        fail reads rather than keep serving the stale value."""
        world, domain, capsules, app = lease_world()
        proxy, client, authority = cached_singleton(
            world, domain, capsules, app, ttl_ms=300.0)
        writer = world.capsule("n2", "writer")
        wproxy = world.binder_for(writer).bind(
            capsules["n1"].make_ref(capsules["n1"].interface("lease.kv")))
        proxy.put("k", "v1")
        assert proxy.get("k") == "v1"

        world.partition(["cli"], ["n1", "n2", "n3"])
        wproxy.put("k", "v2")  # supersedes; inval post cannot arrive
        world.settle()

        # Within the grant: the stale read is allowed (and renewal
        # attempts fail without killing service).
        assert proxy.get("k") == "v1"
        assert client.acquire_failures >= 0

        # Past expiry: fenced.  The holder must NOT fall back to its
        # stale entry just because the network is down.
        world.clock.advance(400.0)
        with pytest.raises(CommunicationError):
            proxy.get("k")
        assert client.expired >= 1

        world.faults.heal_partition()
        assert proxy.get("k") == "v2"  # fresh fetch after healing

    def test_supervisor_revokes_dead_holders_and_flushes_revival(self):
        world, domain, capsules, app = lease_world(seed=11)
        proxy, client, authority = cached_singleton(
            world, domain, capsules, app, ttl_ms=60_000.0)
        supervisor = domain.supervisor
        supervisor.start()
        supervisor._watch("cli", "app")
        world.scheduler.run_until(world.now + 200.0)

        proxy.put("k", "v1")
        assert proxy.get("k") == "v1"
        assert authority.holders() == ["cli"]

        world.crash_node("cli")
        world.scheduler.run_until(world.now + 500.0)
        assert authority.revocations >= 1  # declared dead, revoked
        assert authority.holders() == []

        # Writes while the holder is down fan out to nobody.
        posted = authority.invalidations_posted
        writer = world.capsule("n2", "writer2")
        wproxy = world.binder_for(writer).bind(
            capsules["n1"].make_ref(capsules["n1"].interface("lease.kv")))
        wproxy.put("k", "v2")
        world.scheduler.run_until(world.now + 50.0)
        assert authority.invalidations_posted == posted

        # The revived holder's first *contact* flushes its pre-crash
        # cache (the authority left a flush-all pending marker).  Until
        # then serving old entries is within the bound — force the
        # contact by crossing the grant's renewal half-life.
        world.restart_node("cli")
        world.scheduler.run_until(world.now + 200.0)
        world.clock.advance(35_000.0)
        assert proxy.get("k") == "v2"
        assert client.flushes >= 1
        supervisor.stop()


# ---------------------------------------------------------------------------
# Shard integration: drain leases before cutover
# ---------------------------------------------------------------------------

class TestShardDrain:
    def test_rebalancer_drains_leases_before_move(self):
        """Read-during-move: a cached shard read must see the post-move
        value even when the write's invalidation post was lost."""
        world = World(seed=5)
        for name in ("n1", "n2", "n3", "cli"):
            world.node("d", name)
        capsules = [world.capsule(n, "srv") for n in ("n1", "n2", "n3")]
        app = world.capsule("cli", "app")
        domain = world.domain("d")
        space = domain.shards.create("grid", ShardStore, capsules,
                                     shards=8)
        proxy = space.bind(app)
        client = domain.leases.attach_client(app.nucleus)

        key = "z0"
        index = space.shard_of(key)
        owner = space.owners[index]
        domain.leases.register(space.shard_id(index), ttl_ms=800.0)

        proxy.incr(key)
        assert proxy.get(key) == 1  # fills through the router's cache
        assert client.fills == 1
        assert proxy.get(key) == 1
        assert client.hits == 1

        world.faults.lose_next(owner, "cli")  # lose the inval post
        proxy.incr(key)
        world.settle()

        moves = space.rebalancer.node_left(owner)
        assert any(m.index == index for m in moves)
        assert domain.leases.drains >= 1

        # The drain revoked the grant (and waited out the grace
        # window), so the read refetches from the new owner.
        assert space.owners[index] != owner
        assert proxy.get(key) == 2
        assert client.entries == {} or client.hits >= 1


# ---------------------------------------------------------------------------
# Placement and reporting
# ---------------------------------------------------------------------------

class TestManagementIntegration:
    def test_placement_counts_outstanding_leases_as_load(self):
        world, domain, capsules, app = lease_world()
        capsules["n1"].export(KvStore(), interface_id="hot.kv")
        domain.leases.register("hot.kv", ttl_ms=10_000.0)
        for holder in ("cli", "n2", "n3"):
            domain.leases.acquire(holder, "hot.kv")

        ranked = placement_candidates(domain, "srv")
        # n1 serves three cached readers: every write it hosts fans out
        # to them, so it ranks behind the otherwise-identical n2/n3.
        assert [c.nucleus.node_address for _, c in ranked] \
            == ["n2", "n3", "n1"]
        capsule = ranked[-1][1]
        assert domain.leases.node_lease_load(capsule) == 3

    def test_domain_report_has_a_lease_section(self):
        world, domain, capsules, app = lease_world()
        proxy, client, _ = cached_singleton(world, domain, capsules, app)
        proxy.put("k", "v1")
        proxy.get("k")
        proxy.get("k")
        report = TransparencyMonitor(domain).domain_report()
        lease = report["lease"]
        assert lease["registered"] == ["lease.kv"]
        assert lease["cache"]["hits"] >= 1
        assert lease["cache"]["clients"] == 1
