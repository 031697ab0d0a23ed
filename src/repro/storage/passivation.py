"""Passivation: resource transparency.

"Resource management may cause an object to be passivated when it is not
in use - for example by removing it from main memory and putting it on
disc" (section 5.4).  A passivated interface stays registered; the first
invocation to arrive reactivates it transparently (the reactivator hook is
installed on the interface), the epoch is bumped, and the relocation
service is advised of the change.
"""

from __future__ import annotations

from repro.comp.interface import Interface, InterfaceState
from repro.errors import StorageError
from repro.storage.repository import StableRepository, StoredObject
from repro.tx.versions import restore_snapshot, take_snapshot


class PassivationManager:
    """Moves idle objects between capsules and the stable repository."""

    def __init__(self, domain) -> None:
        self.domain = domain
        self.reactivations = 0

    @property
    def repository(self) -> StableRepository:
        return self.domain.repository

    # -- explicit passivation -----------------------------------------------------

    def passivate(self, capsule, interface_id: str) -> None:
        interface = capsule.interfaces.get(interface_id)
        if interface is None:
            raise StorageError(
                f"no interface {interface_id} in capsule {capsule.name}")
        if interface.state != InterfaceState.ACTIVE:
            return
        implementation = interface.implementation
        self.repository.store(StoredObject(
            key=f"passive:{interface_id}",
            cls=type(implementation),
            snapshot=take_snapshot(implementation),
            signature=interface.signature,
            constraints=interface.annotations.get("constraints"),
            epoch=interface.epoch,
            kind="passive"))
        interface.passivate()
        interface.annotations["reactivator"] = self._make_reactivator(
            capsule)

    def _make_reactivator(self, capsule):
        def reactivate(interface: Interface) -> None:
            record = self.repository.fetch(
                f"passive:{interface.interface_id}")
            implementation = object.__new__(record.cls)
            restore_snapshot(implementation, record.snapshot)
            interface.reactivate(implementation)
            self.repository.delete(f"passive:{interface.interface_id}")
            self.reactivations += 1
            # Advise relocation of the (same-place, new-epoch) reference.
            self.domain.relocator.update(capsule.make_ref(interface))
        return reactivate
