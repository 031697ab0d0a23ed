"""Inter-stream synchronisation.

Multi-media "brings questions of ... how to handle synchronization between
streams of voice, video and data" (section 7.2).  The controller pairs
frames from two flows by their send timestamps (e.g. audio at 50 Hz with
video at 25 Hz) and releases them together once both sides of a pair are
present, measuring the skew a player would have to absorb.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple


@dataclass
class SyncedPair:
    """One released presentation unit."""

    primary_seq: int
    secondary_seq: int
    primary_sent: float
    secondary_sent: float
    released_at: float

    @property
    def skew_ms(self) -> float:
        return abs(self.primary_sent - self.secondary_sent)


class SyncController:
    """Pairs two flows for synchronised presentation.

    ``tolerance_ms`` is the maximum send-time difference for two frames to
    belong to the same presentation instant.  Attach it to two endpoints'
    sinks via :meth:`sink_for`.
    """

    def __init__(self, primary_name: str, secondary_name: str,
                 clock, tolerance_ms: float = 20.0) -> None:
        self.primary_name = primary_name
        self.secondary_name = secondary_name
        self.clock = clock
        self.tolerance_ms = tolerance_ms
        self._buffers: Dict[str, List[Tuple[int, float]]] = {
            primary_name: [], secondary_name: []}
        self.released: List[SyncedPair] = []
        self.discarded = 0

    def sink_for(self, flow_name: str) -> Callable:
        """A sink callback for one of the two flows."""
        if flow_name not in self._buffers:
            raise KeyError(f"controller does not manage flow {flow_name!r}")

        def sink(seq: int, payload: bytes, sent_at: float,
                 arrived_at: float) -> None:
            self._buffers[flow_name].append((seq, sent_at))
            self._match()

        return sink

    def _match(self) -> None:
        primary = self._buffers[self.primary_name]
        secondary = self._buffers[self.secondary_name]
        while primary and secondary:
            p_seq, p_sent = primary[0]
            s_seq, s_sent = secondary[0]
            delta = p_sent - s_sent
            if abs(delta) <= self.tolerance_ms:
                primary.pop(0)
                secondary.pop(0)
                self.released.append(SyncedPair(p_seq, s_seq, p_sent,
                                                s_sent, self.clock.now))
            elif delta > 0:
                # Primary frame is newer: the old secondary frame will
                # never find a partner.
                secondary.pop(0)
                self.discarded += 1
            else:
                primary.pop(0)
                self.discarded += 1

    # -- measurements -----------------------------------------------------------

    def mean_skew_ms(self) -> float:
        if not self.released:
            return 0.0
        return sum(p.skew_ms for p in self.released) / len(self.released)

    def max_skew_ms(self) -> float:
        if not self.released:
            return 0.0
        return max(p.skew_ms for p in self.released)
