"""The sharded object space: ring placement, routing, fenced moves.

Covers the repro.shard subsystem end to end — deterministic
consistent-hash placement, key routing through a live proxy, staged
(fence -> transfer -> cutover -> unfence) rebalancing, the epoch fence
that stops zombie pre-move records from double-executing writes, the
reply-dedup window travelling with graceful moves, and the supervisor
integration that drains crashed owners and re-admits restarted nodes.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

import pytest

from repro.check.workload import ShardStore
from repro.errors import BindingError, WrongShardError
from repro.mgmt.placement import observed_liveness, placement_candidates
from repro.mgmt.monitor import TransparencyMonitor
from repro.resilience.dedup import ReplyCache
from repro.runtime import World
from repro.shard import PlacementRing
from repro.util.ids import stable_hash


def _assignment(view, keys):
    return {key: view.owner(key) for key in keys}


def _digest(view, keys):
    """A byte-stable digest of *view*'s assignment of *keys*."""
    hasher = hashlib.sha256(str(view.epoch).encode("ascii"))
    for key in keys:
        hasher.update(f"|{key}={view.owner(key)}".encode("utf-8"))
    return hasher.hexdigest()


def shard_world(nodes=("n1", "n2", "n3"), seed=5, shards=8, **kwargs):
    world = World(seed=seed)
    for name in tuple(nodes) + ("cli",):
        world.node("d", name)
    capsules = [world.capsule(name, "srv") for name in nodes]
    app = world.capsule("cli", "app")
    domain = world.domain("d")
    space = domain.shards.create("grid", ShardStore, capsules,
                                 shards=shards, **kwargs)
    return world, domain, space, app


def shard_data(space, index):
    node = space.owners[index]
    interface = space.capsules[node].interfaces[space.shard_id(index)]
    return interface.implementation.data


def key_owned_by(space, node, prefix="z"):
    """A key whose shard currently lives on *node*."""
    for i in range(10_000):
        key = f"{prefix}{i}"
        if space.owner_of(key) == node:
            return key
    raise AssertionError(f"no key found for {node}")


# ---------------------------------------------------------------------------
# The stable key hash
# ---------------------------------------------------------------------------

class TestStableHash:
    def test_pinned_values(self):
        # Pinned across releases: the ring's placement (and therefore
        # every recorded assignment digest) depends on these bytes.
        assert stable_hash("k0") == 15106670302532185134
        assert stable_hash("routing-key") == 16784991831878669005
        assert stable_hash("k0", bits=32) == 3517295770

    def test_width_validation(self):
        with pytest.raises(ValueError):
            stable_hash("x", bits=12)
        with pytest.raises(ValueError):
            stable_hash("x", bits=0)
        with pytest.raises(ValueError):
            stable_hash("x", bits=512)
        assert 0 <= stable_hash("x", bits=8) < 256

    def test_stable_across_processes(self):
        """PYTHONHASHSEED randomization must not reach the ring.

        A child interpreter with a different hash seed computes the
        same key hash and the same ring assignment digest — the property
        ``hash()`` explicitly does not have.
        """
        snippet = (
            "from repro.util.ids import stable_hash\n"
            "from repro.shard.ring import PlacementRing\n"
            "ring = PlacementRing(vnodes=16)\n"
            "for n in ('n1', 'n2', 'n3'): ring.add_node(n)\n"
            "keys = [f'key{i}' for i in range(64)]\n"
            "print(stable_hash('routing-key'))\n"
            "import hashlib\n"
            "view = ring.view()\n"
            "hasher = hashlib.sha256(str(view.epoch).encode('ascii'))\n"
            "for key in keys:\n"
            "    hasher.update(f'|{key}={view.owner(key)}'.encode())\n"
            "print(hasher.hexdigest())\n")
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "4242"
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        out = subprocess.run([sys.executable, "-c", snippet], env=env,
                             capture_output=True, text=True, check=True)
        lines = out.stdout.split()
        assert lines[0] == "16784991831878669005"
        assert lines[1] == ("0d523c72461ea9c57d0b4fdc42f49c0e"
                            "c0b9babf46ca4d183a27e049745dec9e")


# ---------------------------------------------------------------------------
# The placement ring
# ---------------------------------------------------------------------------

class TestPlacementRing:
    KEYS = [f"key{i}" for i in range(400)]

    def _ring(self, nodes, vnodes=16):
        ring = PlacementRing(vnodes=vnodes)
        for node in nodes:
            ring.add_node(node)
        return ring

    def test_assignment_is_deterministic_and_pinned(self):
        a = self._ring(("n1", "n2", "n3"))
        b = self._ring(("n3", "n1", "n2"))  # insertion order irrelevant
        keys = [f"key{i}" for i in range(64)]
        assert _assignment(a.view(), keys) == _assignment(b.view(), keys)
        assert _digest(a.view(), keys) == (
            "0d523c72461ea9c57d0b4fdc42f49c0e"
            "c0b9babf46ca4d183a27e049745dec9e")

    def test_join_moves_only_to_the_new_node(self):
        ring = self._ring([f"n{i}" for i in range(8)], vnodes=32)
        before = _assignment(ring.view(), self.KEYS)
        ring.add_node("n8")
        after = _assignment(ring.view(), self.KEYS)
        moved = [k for k in self.KEYS if before[k] != after[k]]
        # Every moved key moved TO the joiner, nowhere else.
        assert moved and all(after[k] == "n8" for k in moved)
        # ~K/n expected; allow generous variance but forbid reshuffles.
        assert len(moved) <= 3 * len(self.KEYS) // 9

    def test_leave_moves_only_the_left_nodes_keys(self):
        ring = self._ring([f"n{i}" for i in range(8)], vnodes=32)
        before = _assignment(ring.view(), self.KEYS)
        ring.remove_node("n3")
        after = _assignment(ring.view(), self.KEYS)
        moved = [k for k in self.KEYS if before[k] != after[k]]
        assert moved and all(before[k] == "n3" for k in moved)
        assert all(owner != "n3" for owner in after.values())

    def test_epoch_counts_membership_changes(self):
        ring = self._ring(("a", "b"))
        assert ring.epoch == 2
        view = ring.view()
        ring.remove_node("a")
        assert ring.epoch == 3
        # Old views are immutable snapshots, not live aliases.
        assert view.epoch == 2 and "a" in view.nodes

    def test_membership_errors(self):
        ring = self._ring(("a",))
        with pytest.raises(ValueError):
            ring.add_node("a")
        with pytest.raises(ValueError):
            ring.remove_node("zz")
        ring.remove_node("a")
        with pytest.raises(BindingError):
            ring.view().owner("k")
        with pytest.raises(ValueError):
            PlacementRing(vnodes=0)


# ---------------------------------------------------------------------------
# The space: routing, fencing, reporting
# ---------------------------------------------------------------------------

class TestShardSpace:
    def test_routes_to_the_assigned_owner(self):
        world, domain, space, app = shard_world()
        proxy = space.bind(app)
        keys = [f"s{i}" for i in range(24)]
        for key in keys:
            assert proxy.incr(key) == 1
        for key in keys:
            index = space.shard_of(key)
            assert shard_data(space, index).get(key) == 1
        assert sum(space.per_node().values()) == space.shard_count

    def test_fence_rejects_writes_before_dispatch_but_serves_reads(self):
        world, domain, space, app = shard_world()
        proxy = space.bind(app)
        key = "s0"
        proxy.incr(key)
        index = space.shard_of(key)
        space.fence(index)
        before = space.fenced_rejections
        with pytest.raises(WrongShardError):
            proxy.incr(key)
        assert space.fenced_rejections > before
        assert shard_data(space, index).get(key) == 1  # never executed
        assert proxy.get(key) == 1  # reads pass while fenced
        space.unfence(index)
        assert proxy.incr(key) == 2

    def test_duplicate_space_name_rejected(self):
        world, domain, space, app = shard_world()
        with pytest.raises(BindingError):
            domain.shards.create("grid", ShardStore,
                                 list(space.capsules.values()))

    def test_report_shape(self):
        world, domain, space, app = shard_world()
        report = space.report()
        for field in ("epoch", "ring_epoch", "shards", "nodes",
                      "per_node", "migrations", "recoveries",
                      "fenced_rejections", "stale_hits", "chases",
                      "refreshes", "reply_entries_moved",
                      "move_mttr_ms"):
            assert field in report
        assert domain.shards.report()["grid"]["shards"] == 8


# ---------------------------------------------------------------------------
# Online rebalancing
# ---------------------------------------------------------------------------

class TestRebalancing:
    def test_join_migrates_only_toward_the_joiner(self):
        world, domain, space, app = shard_world()
        proxy = space.bind(app)
        keys = [f"s{i}" for i in range(30)]
        for key in keys:
            proxy.incr(key)
        world.node("d", "n4")
        joiner = world.capsule("n4", "srv")
        epoch_before = space.epoch
        moves = space.rebalancer.node_joined(joiner)
        assert moves and all(m.to_node == "n4" for m in moves)
        assert all(m.kind == "migrate" for m in moves)
        assert space.epoch == epoch_before + len(moves)
        assert space.migrations == len(moves)
        assert len(space.mttr_ms) == len(moves)
        # Mid-traffic clients keep working; no increment lost or doubled.
        for key in keys:
            assert proxy.incr(key) == 2

    def test_graceful_leave_and_rejoin(self):
        world, domain, space, app = shard_world()
        proxy = space.bind(app)
        keys = [f"s{i}" for i in range(30)]
        for key in keys:
            proxy.incr(key)
        moves = space.rebalancer.node_left("n2")
        assert all(m.from_node == "n2" for m in moves)
        assert "n2" not in space.ring.nodes()
        assert "n2" not in space.per_node()
        for key in keys:
            assert proxy.incr(key) == 2
        # The capsule stays registered, so the node can rejoin.
        moves = space.rebalancer.node_joined(space.capsules["n2"])
        assert "n2" in space.ring.nodes()
        for key in keys:
            assert proxy.incr(key) == 3

    def test_dedup_window_travels_with_graceful_moves(self):
        world, domain, space, app = shard_world()
        proxy = space.bind(app)
        for i in range(30):
            proxy.incr(f"s{i}")
        space.rebalancer.node_left("n1")
        # The drained node's cached replies were unioned into the
        # targets' caches: a retransmission crossing the cutover still
        # dedups instead of re-executing.
        assert space.reply_entries_moved > 0

    def test_merge_from_unions_without_clobbering(self):
        a = ReplyCache()
        b = ReplyCache()
        a.store("n1/srv-000001-1", b"old")
        b.store("n1/srv-000001-1", b"mine")
        b.store("n2/srv-000002-1", b"other")
        copied = a.merge_from(b)
        assert copied == 1  # only the id a did not already hold
        assert a.lookup("n1/srv-000001-1") == b"old"  # existing wins
        assert a.lookup("n2/srv-000002-1") == b"other"

    def test_stale_routers_chase_transparently_via_stub(self):
        world, domain, space, app = shard_world()
        proxy = space.bind(app)
        victim = space.owners[0]
        key = key_owned_by(space, victim)
        assert proxy.incr(key) == 1
        moves = space.rebalancer.node_left(victim)
        assert moves
        router = proxy._channel.layers[0]
        refreshes_before = router.refreshes
        # The router's view is stale; the relocation layer chases the
        # forwarding stub mid-call and the router adopts the new view.
        assert proxy.incr(key) == 2
        assert router.refreshes > refreshes_before
        assert proxy.incr(key) == 3


# ---------------------------------------------------------------------------
# The epoch fence: the pinned no-double-execution scenario
# ---------------------------------------------------------------------------

class TestEpochFencing:
    def test_zombie_owner_cannot_execute_a_stale_routed_write(self):
        """Crash an owner, recover its shards elsewhere, restart it.

        The restarted node still holds its pre-crash shard records
        (crash never withdrew them, so no forwarding stub exists).  A
        router still holding the pre-move view routes a write straight
        at the zombie: the fence must reject it *before dispatch* —
        stale claimed epoch, no longer the owner — and the router's
        chase must land it on the real owner exactly once.
        """
        world, domain, space, app = shard_world()
        proxy = space.bind(app)
        victim = space.owners[0]
        key = key_owned_by(space, victim)
        index = space.shard_of(key)
        assert proxy.incr(key) == 1

        # A second client whose router caches the pre-move view.
        stale_app = world.capsule("cli", "app2")
        stale_proxy = space.bind(stale_app)
        stale_router = stale_proxy._channel.layers[0]
        assert stale_router.view.epoch == space.epoch

        world.crash_node(victim)
        moves = space.rebalancer.node_left(
            victim, dead=True, down_since=world.now)
        assert any(m.index == index and m.kind == "recover"
                   for m in moves)
        new_owner = space.owners[index]
        assert new_owner != victim
        world.restart_node(victim)

        # The zombie record is still live on n1 — reachable, ACTIVE,
        # holding the pre-crash value.  Only the fence stands between
        # it and a double execution.
        zombie = space.capsules[victim].interfaces[space.shard_id(index)]
        assert zombie is not None
        fenced_before = space.fenced_rejections

        value = stale_proxy.incr(key)

        assert value == 2  # exactly once, on the recovered shard
        assert space.fenced_rejections > fenced_before
        assert stale_router.chases >= 1
        assert stale_router.view.epoch == space.epoch
        assert shard_data(space, index).get(key) == 2
        assert zombie.implementation.data.get(key) == 1  # untouched
        # And the chased-in binding is now current: no more bounces.
        bounced = space.fenced_rejections
        assert stale_proxy.incr(key) == 3
        assert space.fenced_rejections == bounced


# ---------------------------------------------------------------------------
# Supervisor integration: drain on loss, re-admit on return
# ---------------------------------------------------------------------------

class TestSupervisedSharding:
    def _supervised_world(self):
        world, domain, space, app = shard_world(seed=11)
        proxy = space.bind(app)
        keys = [f"s{i}" for i in range(20)]
        for key in keys:
            proxy.incr(key)
        supervisor = domain.supervisor
        supervisor.start()
        world.scheduler.run_until(world.now + 100.0)
        return world, domain, space, proxy, keys, supervisor

    def test_crashed_owner_drained_and_rejoined(self):
        world, domain, space, proxy, keys, supervisor = \
            self._supervised_world()
        world.crash_node("n1")
        world.scheduler.run_until(world.now + 400.0)

        # Detected from observed silence, diagnosed crashed, drained
        # through checkpoint recovery — ownership converged off n1.
        assert "n1" not in space.ring.nodes()
        assert "n1" not in space.per_node()
        assert space.recoveries >= 1
        assert space.mttr_ms and max(space.mttr_ms) > 0.0
        for key in keys:
            assert proxy.incr(key) == 2  # no key lost with the node

        world.restart_node("n1")
        world.scheduler.run_until(world.now + 400.0)
        assert "n1" in space.ring.nodes()  # re-admitted capacity
        for key in keys:
            assert proxy.incr(key) == 3
        supervisor.stop()

    def test_placement_candidates_use_observed_liveness_by_default(self):
        world, domain, space, proxy, keys, supervisor = \
            self._supervised_world()
        liveness = observed_liveness(domain)
        assert liveness is not None and liveness("n2")
        world.crash_node("n2")
        world.scheduler.run_until(world.now + 400.0)
        nodes = [capsule.nucleus.node_address for _, capsule in
                 placement_candidates(domain, "srv")]
        assert "n2" not in nodes  # judged dead by observation alone
        assert nodes  # but the healthy nodes still qualify
        supervisor.stop()

    def test_observed_liveness_absent_without_supervisor(self):
        world, domain, space, app = shard_world()
        assert observed_liveness(domain) is None
        nodes = [capsule.nucleus.node_address for _, capsule in
                 placement_candidates(domain, "srv")]
        assert nodes == ["n1", "n2", "n3"]


# ---------------------------------------------------------------------------
# Management visibility
# ---------------------------------------------------------------------------

class TestMonitoring:
    def test_shard_section_reports_ring_and_churn(self):
        world, domain, space, app = shard_world()
        proxy = space.bind(app)
        for i in range(20):
            proxy.incr(f"s{i}")
        space.rebalancer.node_left("n3")
        report = TransparencyMonitor(domain).domain_report()
        shard = report["shard"]["grid"]
        assert shard["migrations"] >= 1
        assert shard["epoch"] == space.epoch
        assert "n3" not in shard["per_node"]
        assert shard["move_mttr_ms"]["moves"] == len(space.mttr_ms)

    def test_shard_section_absent_without_spaces(self):
        world = World(seed=2)
        world.node("d", "n1")
        world.capsule("n1", "srv")
        report = TransparencyMonitor(world.domain("d")).domain_report()
        assert "shard" not in report

    def test_relocation_section_counts_chase_churn(self):
        world, domain, space, app = shard_world()
        proxy = space.bind(app)
        victim = space.owners[0]
        key = key_owned_by(space, victim)
        proxy.incr(key)
        space.rebalancer.node_left(victim)
        proxy.incr(key)  # chases the forwarding stub
        relocation = TransparencyMonitor(domain).domain_report()[
            "relocation"]
        for field in ("repairs", "stale_hints", "chases"):
            assert field in relocation
        assert relocation["repairs"] >= 1
        assert relocation["repairs"] == (relocation["stale_hints"]
                                         + relocation["chases"])
