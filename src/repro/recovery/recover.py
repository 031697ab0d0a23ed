"""Recovery: reinstating failed objects at alternate locations.

"Checkpointing followed by recovery at alternate locations to mask
faults" (section 3).  Recovery restores the last checkpoint from stable
storage, replays the interaction log against the restored object, exports
it — under the same interface identity, with a bumped epoch — into a
surviving capsule, and registers the change of location so clients'
relocation layers repair transparently.
"""

from __future__ import annotations

from repro.comp.outcomes import Signal
from repro.comp.reference import InterfaceRef
from repro.errors import RecoveryError, StorageError
from repro.recovery.checkpoint import checkpoint_key, log_key
from repro.tx.versions import restore_snapshot


class RecoveryManager:
    """Domain service that recovers checkpointed objects after crashes."""

    #: Virtual-ms charged per replayed log entry (re-execution cost).
    REPLAY_COST_MS = 0.2

    def __init__(self, domain) -> None:
        self.domain = domain
        self.recoveries = 0
        self.replayed_entries = 0

    def recover(self, interface_id: str, target_capsule) -> InterfaceRef:
        """Reinstate *interface_id* into *target_capsule*."""
        repository = self.domain.repository
        try:
            record = repository.fetch(checkpoint_key(interface_id))
        except StorageError as exc:
            raise RecoveryError(
                f"no checkpoint for {interface_id}: {exc}") from exc

        implementation = object.__new__(record.cls)
        restore_snapshot(implementation, record.snapshot)

        log_entries = repository.read_log(log_key(interface_id))
        for entry in log_entries:
            method = getattr(implementation, entry["op"], None)
            if method is None:
                raise RecoveryError(
                    f"log replay: {record.cls.__name__} has no method "
                    f"{entry['op']!r}")
            try:
                method(*entry["args"])
            except Signal:
                # The original invocation terminated with an application
                # outcome; replay reproduces it and moves on.
                pass
            self.replayed_entries += 1
            self.domain.scheduler.clock.advance(self.REPLAY_COST_MS)

        # Refuse to fork a live object: recovery is only legitimate when
        # the current incarnation is unreachable.
        current = self.domain.relocator.try_lookup(interface_id)
        faults = self.domain.network.faults
        if current is not None and current.paths and \
                not faults.is_crashed(current.primary_path().node):
            host = self.domain.nuclei.get(current.primary_path().node)
            if host is not None:
                capsule = host.capsules.get(current.primary_path().capsule)
                if capsule is not None and \
                        interface_id in capsule.interfaces and \
                        capsule.interfaces[interface_id].implementation \
                        is not None:
                    raise RecoveryError(
                        f"{interface_id} is still reachable at "
                        f"{current.primary_path().describe()}; refusing "
                        f"to fork it")
        base_epoch = max(record.epoch,
                         current.epoch if current is not None else 0)
        try:
            target_capsule.evict_stale(interface_id, base_epoch + 1)
        except ValueError as exc:
            raise RecoveryError(
                f"{interface_id} already active in "
                f"{target_capsule.name}: {exc}") from exc
        new_ref = target_capsule.export(
            implementation,
            signature=record.signature,
            constraints=record.constraints,
            interface_id=interface_id,
            epoch=base_epoch + 1)
        self.domain.relocator.update(new_ref)
        self.recoveries += 1
        return new_ref
