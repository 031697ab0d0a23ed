"""The sharded object space: one logical object, many placed shards.

A :class:`ShardSpace` partitions a keyed object across the domain's
nodes.  Keys hash (``repro.util.ids.stable_hash``) onto a fixed set of
shard slots; the slots are placed on nodes by the consistent-hash
:class:`~repro.shard.ring.PlacementRing`.  Each shard is an ordinary
exported interface (``<name>.shard.<i>``), so every existing mechanism
— checkpointing, migration, relocation forwarding, recovery — applies
to shards unchanged.

Ownership is *epoch-fenced*.  The space keeps a single monotonically
increasing epoch, bumped on every ownership change; routers stamp the
epoch of the ring view they routed by into the invocation context
(``RING_KEY``, the shard analogue of the group layer's ``VIEW_KEY``),
and the :class:`ShardFenceLayer` in each shard's server stack rejects a
write *before dispatch* when the shard is fenced for an in-flight move
or when the claimed epoch is stale and this node no longer owns the
shard — the zombie-old-owner write a forwarding stub alone cannot
stop, because a crashed owner never got to install one.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.comp.constraints import EnvironmentConstraints, FailureSpec
from repro.engine.layers import ServerLayer
from repro.errors import BindingError, WrongShardError
from repro.shard.ring import PlacementRing
from repro.transparency.compiler import prepend_server_layer
from repro.util.ids import stable_hash

#: Invocation-context key carrying the router's space epoch (the shard
#: analogue of the group member layer's ``VIEW_KEY``).
RING_KEY = "shard"


class SpaceView:
    """An immutable routing snapshot: epoch + per-shard owner refs."""

    __slots__ = ("epoch", "owners", "refs")

    def __init__(self, epoch: int, owners: Dict[int, str],
                 refs: Dict[int, Any]) -> None:
        self.epoch = epoch
        self.owners = owners
        self.refs = refs

    def __repr__(self) -> str:
        return f"SpaceView(epoch={self.epoch}, shards={len(self.refs)})"


class ShardFenceLayer(ServerLayer):
    """Pre-dispatch ownership check on one shard's server stack.

    Rejection happens *before* the operation executes (like admission
    shedding), which is what makes :class:`WrongShardError` safe to
    retry: a fenced or misrouted write definitely did not run.  Reads
    pass even while fenced — the pre-cutover owner's state stays
    current until the migration lands.
    """

    name = "shard-fence"

    def __init__(self, space: "ShardSpace", index: int, node: str) -> None:
        self.space = space
        self.index = index
        self.node = node

    def handle(self, invocation, interface, next_layer):
        space = self.space
        op_sig = interface.signature.operations.get(invocation.operation)
        readonly = bool(op_sig is not None and op_sig.readonly)
        if not readonly and space.is_fenced(self.index):
            space.fenced_rejections += 1
            raise WrongShardError(
                f"shard {self.index} of {space.name} is fenced for an "
                f"in-flight migration")
        claimed = invocation.context.extra.get(RING_KEY)
        if claimed is not None and claimed != space.epoch:
            if space.owners.get(self.index) != self.node:
                # A stale router reached a node that no longer owns the
                # shard (a pre-move record on a restarted node): reject
                # before dispatch so the write cannot double-execute.
                space.fenced_rejections += 1
                raise WrongShardError(
                    f"shard {self.index} of {space.name} moved off "
                    f"{self.node} (claimed epoch {claimed}, current "
                    f"{space.epoch})")
            # Stale epoch but still the right owner: an unrelated shard
            # moved.  Serve it, count it — churn, not danger.
            space.stale_hits += 1
        if not readonly and space.record_executions:
            space.execution_log.append({
                "inv_id": invocation.invocation_id,
                "op": invocation.operation,
                "shard": self.index,
                "node": self.node,
                "owner": space.owners.get(self.index),
                "epoch": space.epoch,
            })
        return next_layer(invocation)


class ShardSpace:
    """One partitioned object: N shard slots placed over member nodes."""

    def __init__(self, domain, name: str, factory, capsules,
                 shards: int = 16, vnodes: int = 16) -> None:
        if shards < 1:
            raise ValueError("a space needs at least one shard")
        if not capsules:
            raise BindingError("a shard space needs at least one capsule")
        self.domain = domain
        self.name = name
        self.factory = factory
        self.shard_count = shards
        self.capsule_name = capsules[0].name
        self.ring = PlacementRing(vnodes=vnodes)
        #: node -> capsule, remembered across ring leaves so a
        #: restarted node can rejoin without re-registration.
        self.capsules: Dict[str, Any] = {}
        for capsule in capsules:
            node = capsule.nucleus.node_address
            if node in self.capsules:
                raise BindingError(
                    f"two capsules on node {node} in space {name}")
            self.capsules[node] = capsule
            self.ring.add_node(node)
        self.owners: Dict[int, str] = {}
        self.refs: Dict[int, Any] = {}
        self._fenced: set = set()
        # Counters the monitor's "shard" section surfaces; every router
        # bound to the space counts its chases and refreshes here too.
        self.chases = 0
        self.refreshes = 0
        self.migrations = 0
        self.recoveries = 0
        self.fenced_rejections = 0
        self.stale_hits = 0
        self.reply_entries_moved = 0
        #: Degraded-window (fence -> cutover) samples per move, ms.
        self.mttr_ms: List[float] = []
        #: Opt-in write-execution ledger for the shard_routing oracle.
        self.record_executions = False
        self.execution_log: List[Dict[str, Any]] = []

        view = self.ring.view()
        constraints = EnvironmentConstraints(
            failure=FailureSpec(checkpoint_every=1))
        for index in range(shards):
            node = view.owner(self.shard_id(index))
            ref = self.capsules[node].export(
                factory(), constraints=constraints,
                interface_id=self.shard_id(index))
            self.owners[index] = node
            self.refs[index] = ref
            self._attach_fence(index)
        #: Space epoch: bumped on every ownership publish; routers stamp
        #: the epoch they routed by, the fence compares.
        self.epoch = 1

    # -- key routing ---------------------------------------------------------

    def shard_id(self, index: int) -> str:
        """The stable identity of slot *index* (interface id + ring key)."""
        return f"{self.name}.shard.{index}"

    def shard_of(self, key: str) -> int:
        return stable_hash(key) % self.shard_count

    def owner_of(self, key: str) -> str:
        return self.owners[self.shard_of(key)]

    # -- views & fencing -----------------------------------------------------

    def view(self) -> SpaceView:
        return SpaceView(self.epoch, dict(self.owners), dict(self.refs))

    def fence(self, index: int) -> None:
        self._fenced.add(index)

    def unfence(self, index: int) -> None:
        self._fenced.discard(index)

    def is_fenced(self, index: int) -> bool:
        return index in self._fenced

    def publish(self, index: int, node: str, ref) -> None:
        """Cut ownership of one shard over to *node* (epoch bump)."""
        self.owners[index] = node
        self.refs[index] = ref
        self.epoch += 1
        self._attach_fence(index)

    def _attach_fence(self, index: int) -> None:
        """(Re)attach the fence to the shard's *current* interface.

        Export compiles a fresh server stack, so every move or recovery
        must re-wrap the new interface — a shard without its fence would
        accept zombie writes.
        """
        node = self.owners[index]
        capsule = self.capsules[node]
        interface = capsule.interfaces.get(self.shard_id(index))
        if interface is None:
            raise BindingError(
                f"shard {index} of {self.name} has no interface on "
                f"{node} to fence")
        prepend_server_layer(capsule, interface,
                             ShardFenceLayer(self, index, node))

    # -- membership (delegated to the rebalancer for the moves) --------------

    @property
    def rebalancer(self):
        if getattr(self, "_rebalancer", None) is None:
            from repro.shard.rebalancer import Rebalancer
            self._rebalancer = Rebalancer(self)
        return self._rebalancer

    def register_capsule(self, capsule) -> str:
        """Remember a (possibly new) member node's shard capsule."""
        node = capsule.nucleus.node_address
        existing = self.capsules.get(node)
        if existing is not None and existing is not capsule:
            raise BindingError(
                f"node {node} already registered a different capsule "
                f"in space {self.name}")
        self.capsules[node] = capsule
        return node

    # -- client binding ------------------------------------------------------

    def bind(self, client_capsule, qos=None, max_chases: int = 4):
        """Bind a client: a proxy whose ops route by their first arg."""
        from repro.engine.binder import Proxy
        from repro.engine.channel import Channel, TransportLayer
        from repro.relocation.layer import RelocationLayer
        from repro.shard.router import ShardRouterLayer

        nucleus = client_capsule.nucleus
        router = ShardRouterLayer(self, max_chases=max_chases)
        layers = [router, RelocationLayer(self.domain.relocator)]
        transport = TransportLayer(nucleus, client_capsule)
        channel = Channel(self.refs[0], nucleus, client_capsule,
                          layers, transport)
        return Proxy(channel, None, default_qos=qos)

    # -- reporting -----------------------------------------------------------

    def per_node(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for index in sorted(self.owners):
            node = self.owners[index]
            counts[node] = counts.get(node, 0) + 1
        return dict(sorted(counts.items()))

    def report(self) -> Dict[str, Any]:
        samples = self.mttr_ms
        return {
            "epoch": self.epoch,
            "ring_epoch": self.ring.epoch,
            "shards": self.shard_count,
            "nodes": list(self.ring.nodes()),
            "per_node": self.per_node(),
            "migrations": self.migrations,
            "recoveries": self.recoveries,
            "fenced_rejections": self.fenced_rejections,
            "stale_hits": self.stale_hits,
            "chases": self.chases,
            "refreshes": self.refreshes,
            "reply_entries_moved": self.reply_entries_moved,
            "move_mttr_ms": {
                "moves": len(samples),
                "mean": (round(sum(samples) / len(samples), 3)
                         if samples else 0.0),
                "max": round(max(samples), 3) if samples else 0.0,
            },
        }


class ShardManager:
    """The domain's registry of shard spaces (lazy, like every service)."""

    def __init__(self, domain) -> None:
        self.domain = domain
        self._spaces: Dict[str, ShardSpace] = {}

    def create(self, name: str, factory, capsules, shards: int = 16,
               vnodes: int = 16) -> ShardSpace:
        if name in self._spaces:
            raise BindingError(f"duplicate shard space {name!r}")
        space = ShardSpace(self.domain, name, factory, capsules,
                           shards=shards, vnodes=vnodes)
        self._spaces[name] = space
        return space

    def spaces(self) -> List[ShardSpace]:
        return [self._spaces[name] for name in sorted(self._spaces)]

    def report(self) -> Dict[str, Any]:
        return {space.name: space.report() for space in self.spaces()}
