"""Per-flow quality-of-service monitoring.

"It may be that the flows need to be controlled or that events occurring
within the streams should be monitored" — the monitor records every frame
arrival and can judge the flow against its contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.streams.stream import StreamQoS


@dataclass
class FlowStats:
    frames_received: int
    frames_lost: int
    loss_rate: float
    mean_latency_ms: float
    max_latency_ms: float
    mean_jitter_ms: float
    contract_violations: List[str]


class QoSMonitor:
    """Records frame arrivals for one flow and judges the contract."""

    def __init__(self, flow_name: str, qos: StreamQoS) -> None:
        self.flow_name = flow_name
        self.qos = qos
        self.arrivals: List[tuple] = []  # (seq, sent_at, arrived_at)
        self._last_arrival: Optional[float] = None
        self._interarrivals: List[float] = []
        self.highest_seq = 0

    def record(self, seq: int, sent_at: float, arrived_at: float) -> None:
        self.arrivals.append((seq, sent_at, arrived_at))
        if seq > self.highest_seq:
            self.highest_seq = seq
        if self._last_arrival is not None:
            self._interarrivals.append(arrived_at - self._last_arrival)
        self._last_arrival = arrived_at

    # -- statistics ------------------------------------------------------------

    def latencies(self) -> List[float]:
        return [arrived - sent for _, sent, arrived in self.arrivals]

    def jitter_ms(self) -> float:
        """Mean absolute deviation of inter-arrival times from nominal."""
        if len(self._interarrivals) < 2:
            return 0.0
        nominal = 1000.0 / self.qos.rate_hz
        deviations = [abs(gap - nominal) for gap in self._interarrivals]
        return sum(deviations) / len(deviations)

    def stats(self) -> FlowStats:
        received = len(self.arrivals)
        lost = max(0, self.highest_seq - received)
        expected = max(self.highest_seq, 1)
        loss_rate = lost / expected
        lats = self.latencies()
        mean_latency = sum(lats) / len(lats) if lats else 0.0
        max_latency = max(lats) if lats else 0.0
        jitter = self.jitter_ms()

        violations = []
        if loss_rate > self.qos.max_loss:
            violations.append(
                f"loss {loss_rate:.3f} > contract {self.qos.max_loss}")
        if mean_latency > self.qos.max_latency_ms:
            violations.append(
                f"mean latency {mean_latency:.2f}ms > contract "
                f"{self.qos.max_latency_ms}ms")
        if jitter > self.qos.max_jitter_ms:
            violations.append(
                f"jitter {jitter:.2f}ms > contract "
                f"{self.qos.max_jitter_ms}ms")
        return FlowStats(received, lost, loss_rate, mean_latency,
                         max_latency, jitter, violations)
