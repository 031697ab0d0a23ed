"""The idle-time collector.

"Many of the computers in large distributed systems spend significant
periods idle (overnight for example) and can contribute resources towards
the garbage collection process" — sweeps are scheduled on the virtual
clock, typically at long intervals, and examine only passive and closed
interfaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.comp.interface import InterfaceState
from repro.gc.leases import LeaseTable


@dataclass
class SweepReport:
    """What one collection pass did."""

    examined: int = 0
    collected: List[str] = field(default_factory=list)
    closed_reclaimed: List[str] = field(default_factory=list)
    demoted: List[str] = field(default_factory=list)
    leases_pruned: int = 0


class Collector:
    """Per-domain distributed garbage collector."""

    #: Passive objects untouched this long are demoted to the archive
    #: tier ("progressively moved out to less and less accessible
    #: storage media").
    archive_after_ms = 60_000.0

    def __init__(self, domain) -> None:
        self.domain = domain
        self.leases = LeaseTable()
        self.sweeps = 0
        self.total_collected = 0
        self.sweep_event = None

    # -- reference tracking hooks ---------------------------------------------------

    def note_binding(self, ref, holder: str) -> None:
        """A client bound to the reference: grant a lease."""
        self.leases.grant(ref.interface_id, holder,
                          self.domain.scheduler.now)

    def note_use(self, interface_id: str, holder: str) -> None:
        """Use renews the holder's claim."""
        self.leases.renew(interface_id, holder, self.domain.scheduler.now)

    # -- collection -------------------------------------------------------------------

    def _capsules(self):
        for nucleus in self.domain.nuclei.values():
            for capsule in nucleus.capsules.values():
                yield capsule

    def sweep(self) -> SweepReport:
        """One collection pass over the domain's capsules."""
        now = self.domain.scheduler.now
        report = SweepReport()
        report.leases_pruned = self.leases.prune(now)
        self.sweeps += 1

        for capsule in list(self._capsules()):
            for interface in list(capsule.interfaces.values()):
                report.examined += 1
                if interface.state == InterfaceState.CLOSED:
                    self._reclaim(capsule, interface)
                    report.closed_reclaimed.append(interface.interface_id)
                    continue
                if interface.state != InterfaceState.PASSIVE:
                    continue  # active objects cannot be garbage
                interface_id = interface.interface_id
                if self.leases.has_live_lease(interface_id, now):
                    last = interface.annotations.get("last_used", 0.0)
                    record_key = f"passive:{interface_id}"
                    if now - last >= self.archive_after_ms and \
                            self.domain.repository.contains(record_key):
                        self._demote(record_key)
                        report.demoted.append(interface_id)
                    continue
                self._reclaim(capsule, interface)
                self.domain.repository.delete(f"passive:{interface_id}")
                report.collected.append(interface_id)

        self.total_collected += len(report.collected)
        return report

    def _reclaim(self, capsule, interface) -> None:
        interface_id = interface.interface_id
        capsule.interfaces.pop(interface_id, None)
        capsule.forwards.pop(interface_id, None)
        self.domain.relocator.unregister(interface_id)
        self.leases.forget(interface_id)

    def _demote(self, record_key: str) -> None:
        record = self.domain.repository.fetch(record_key)
        record.kind = "archived"
        self.domain.repository.store(record)

    # -- scheduling --------------------------------------------------------------------

    def start_sweeping(self, interval_ms: float = 30_000.0) -> None:
        self.sweep_event = self.domain.scheduler.every(
            interval_ms, self.sweep, label="gc-sweep")

    def stop_sweeping(self) -> None:
        if self.sweep_event is not None:
            self.sweep_event.cancel()
            self.sweep_event = None
