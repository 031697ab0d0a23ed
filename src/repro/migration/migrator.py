"""Object migration between capsules.

The migration path:

1. ask the object whether it is ready (``odp_ready_to_move``),
2. snapshot its state ("the snapshot is moved to another location and
   immediately re-activated", section 5.5),
3. withdraw the interface from the source capsule, leaving a forwarding
   stub so in-flight references repair cheaply,
4. export a new instance at the destination under the *same* interface
   identity with a bumped epoch,
5. register the change with the relocation service.

Interface identity is stable across moves — that is what makes the move
invisible to reference holders.
"""

from __future__ import annotations

from repro.comp.reference import InterfaceRef
from repro.errors import MigrationError
from repro.tx.versions import restore_snapshot, take_snapshot


class Migrator:
    """Domain service that moves objects between capsules."""

    def __init__(self, domain) -> None:
        self.domain = domain
        self.migrations = 0
        self.refusals = 0
        #: Virtual-ms charged per migrated state byte-equivalent; the
        #: snapshot transfer itself is priced as one network message.
        self.transfer_overhead_ms = 0.5

    def migrate(self, source_capsule, interface_id: str,
                target_capsule, leave_forward: bool = True) -> InterfaceRef:
        """Move one interface's object; returns the new reference."""
        if source_capsule is target_capsule:
            raise MigrationError("source and target capsules are the same")
        interface = source_capsule.interfaces.get(interface_id)
        if interface is None:
            raise MigrationError(
                f"no interface {interface_id} in {source_capsule.name}")
        implementation = interface.implementation
        if implementation is None:
            raise MigrationError(
                f"interface {interface_id} has no active implementation")

        ready = getattr(implementation, "odp_ready_to_move", None)
        if callable(ready) and not ready():
            self.refusals += 1
            raise MigrationError(
                f"object behind {interface_id} refused to move "
                f"(not ready)")

        snapshot = take_snapshot(implementation)
        new_implementation = object.__new__(type(implementation))
        restore_snapshot(new_implementation, snapshot)

        # Charge the state transfer as a network message when inter-node.
        network = self.domain.network
        src_node = source_capsule.nucleus.node_address
        dst_node = target_capsule.nucleus.node_address
        if src_node != dst_node:
            size = len(repr(snapshot))
            network.scheduler.clock.advance(
                network.latency.delay(src_node, dst_node, size,
                                      network.jitter_rng)
                + self.transfer_overhead_ms)

        old_epoch = interface.epoch
        constraints = interface.annotations.get("constraints")
        source_capsule.withdraw(interface_id)
        # A restarted node may hold a stale pre-crash record of the same
        # identity; the newer epoch evicts it.
        target_capsule.evict_stale(interface_id, old_epoch + 1)
        new_ref = target_capsule.export(
            new_implementation,
            signature=interface.signature,
            constraints=constraints,
            interface_id=interface_id,
            epoch=old_epoch + 1)

        if leave_forward:
            source_capsule.forwards[interface_id] = new_ref
        self.domain.relocator.update(new_ref)
        self.migrations += 1
        return new_ref
