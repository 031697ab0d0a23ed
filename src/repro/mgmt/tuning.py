"""Changing transparency parameters at runtime.

Section 7.4 requires "management interfaces for monitoring transparency
mechanisms and changing transparency parameters".  Monitoring lives in
:mod:`repro.mgmt.monitor`; this module is the *changing* half: knobs on
the running mechanisms, applied without rebinding clients or restarting
servers.  Each knob acts on a mechanism that runs: a checkpointed
interface's interval, the collector's lease TTL and sweep period.
Supervision has no knob here; ``domain.supervisor`` runs at its fixed
heartbeat period.
"""

from __future__ import annotations

from repro.comp.constraints import FailureSpec


class TransparencyTuner:
    """Runtime knobs over one domain's transparency mechanisms."""

    def __init__(self, domain) -> None:
        self.domain = domain

    # -- failure transparency ----------------------------------------------------

    def set_checkpoint_interval(self, interface_id: str,
                                checkpoint_every: int) -> None:
        """Re-tune a checkpointed interface's steady-state/recovery
        trade-off (see benchmark C8 for the curve being tuned)."""
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        layer = self._checkpoint_layer(interface_id)
        old = layer.spec
        layer.spec = FailureSpec(checkpoint_every=checkpoint_every,
                                 recovery_node=old.recovery_node)

    def checkpoint_now(self, interface_id: str) -> None:
        """Force an immediate checkpoint (e.g. before planned work)."""
        self._checkpoint_layer(interface_id).checkpoint()

    def _checkpoint_layer(self, interface_id: str):
        interface = self._find_interface(interface_id)
        layer = interface.annotations.get("checkpoint_layer")
        if layer is None:
            raise KeyError(
                f"interface {interface_id} has no failure transparency")
        return layer

    # -- garbage collection -------------------------------------------------------

    def set_lease_ttl(self, ttl_ms: float) -> None:
        if ttl_ms <= 0:
            raise ValueError("ttl must be positive")
        self.domain.collector.leases.default_ttl_ms = ttl_ms

    def set_gc_interval(self, interval_ms: float) -> None:
        collector = self.domain.collector
        collector.stop_sweeping()
        collector.start_sweeping(interval_ms=interval_ms)

    # -- lookup -----------------------------------------------------------------------

    def _find_interface(self, interface_id: str):
        for nucleus in self.domain.nuclei.values():
            for capsule in nucleus.capsules.values():
                interface = capsule.interfaces.get(interface_id)
                if interface is not None:
                    return interface
        raise KeyError(f"no interface {interface_id} in domain "
                       f"{self.domain.name}")
