"""Heartbeat emission and observation over the simulated network.

Every watched ``(node, capsule)`` endpoint emits a small one-way
message to the current *observer* node on a fixed period (staggered by
a deterministic per-endpoint phase so a fleet never beats in
lock-step).  Beats travel through :meth:`repro.net.network.Network.post`
— so a crashed node emits nothing, a partitioned or cut link delivers
nothing, and a gray link delivers late — which is exactly the signal
the :class:`~repro.heal.detector.PhiAccrualDetector` consumes.

The observer is itself a fallible node.  When the detector reports a
majority of endpoints suspect at once, the supervisor calls
:meth:`HeartbeatMonitor.rehome` to rotate observation to the next node
(deterministically, in address order) and re-prime the detector —
distinguishing "everyone died" from "I went deaf".
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Tuple


class HeartbeatMonitor:
    """Emits and collects heartbeats for one domain's supervisor."""

    def __init__(self, domain, detector,
                 interval_ms: float = 50.0,
                 home: Optional[str] = None) -> None:
        if interval_ms <= 0:
            raise ValueError("heartbeat interval must be positive")
        self.domain = domain
        self.detector = detector
        self.interval_ms = interval_ms
        #: Preferred initial observer node (vantage placement); falls
        #: back to the first address in sort order when absent.
        self.home = home
        #: Message kind, minted per world so concurrent monitors (and
        #: identically-seeded runs) stay deterministic and disjoint.
        self.kind = domain.mint("hb")
        self.observer: str = ""
        self._emitters: Dict[Tuple[str, str], object] = {}
        #: Beat payload -> the endpoint it announces.
        self._endpoints: Dict[bytes, Tuple[str, str]] = {}
        self._registered: set = set()
        self.beats_sent = 0
        self.rehomes = 0
        self.running = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self.running:
            return
        addresses = sorted(self.domain.nuclei)
        if not addresses:
            raise RuntimeError(
                f"domain {self.domain.name} has no nodes to observe from")
        self.running = True
        # Nothing beat while emission was stopped: that silence says
        # nothing about the fleet and must not be held against it.
        self.detector.reset()
        if self.home is not None and self.home in addresses:
            self.observer = self.home
        else:
            self.observer = addresses[0]
        for address in addresses:
            self._register(address)

    def stop(self) -> None:
        for handle in self._emitters.values():
            handle.cancel()
        self._emitters.clear()
        self.running = False

    # -- watching ------------------------------------------------------------

    def watch(self, node: str, capsule: str) -> None:
        """Start emitting (and expecting) heartbeats for an endpoint."""
        key = (node, capsule)
        if key in self._emitters:
            return
        self._register(node)
        self.detector.watch(node, capsule)
        scheduler = self.domain.scheduler
        network = self.domain.network
        payload = f"{node}|{capsule}".encode("utf-8")
        self._endpoints[payload] = key
        label = f"hb:{node}/{capsule}"

        def emit() -> None:
            self.beats_sent += 1
            network.post(node, self.observer, payload, self.kind)

        def kick() -> None:
            if self._emitters.get(key) is not handle:
                return  # unwatched before the first beat
            emit()
            self._emitters[key] = scheduler.every(self.interval_ms, emit,
                                                  label=label)

        handle = scheduler.after(self._phase(node, capsule), kick,
                                 label=label)
        self._emitters[key] = handle

    def watches(self, node: str, capsule: str) -> bool:
        return (node, capsule) in self._emitters

    # -- observer fail-over --------------------------------------------------

    def rehome(self) -> None:
        """Rotate observation to the next node and re-prime the detector.

        The rotation is blind — the monitor cannot know which nodes are
        alive without observing from them — but it is deterministic and
        converges: a dead observer hears nothing, goes majority-suspect
        again, and rotates onward until a live node is reached.
        """
        addresses = sorted(self.domain.nuclei)
        if self.observer in addresses:
            index = addresses.index(self.observer)
            self.observer = addresses[(index + 1) % len(addresses)]
        elif addresses:
            self.observer = addresses[0]
        self.rehomes += 1
        self.detector.reset()

    # -- internals -----------------------------------------------------------

    def _register(self, address: str) -> None:
        """Install the beat delivery handler on a node (any node may
        become the observer after a rehome)."""
        if address in self._registered:
            return
        self.domain.network.node(address).on_deliver(self.kind,
                                                     self._on_beat)
        self._registered.add(address)

    def _on_beat(self, message) -> None:
        if message.destination != self.observer:
            return  # late delivery addressed to a previous observer
        endpoint = self._endpoints.get(message.payload)
        if endpoint is not None:
            self.detector.observe(endpoint[0], endpoint[1])

    def _phase(self, node: str, capsule: str) -> float:
        """Deterministic per-endpoint emission phase in [0, interval)."""
        digest = hashlib.sha256(
            f"{self.kind}|{node}|{capsule}".encode("utf-8")).hexdigest()
        return (int(digest[:8], 16) % 9973) / 9973.0 * self.interval_ms
