"""Latency models.

Section 4.1: "latency is variable: invocations may be delayed due to the
distance of the client from the server, or because of transient
communications problems".  Latency models turn a (source, destination, size)
triple into a transit delay in virtual milliseconds.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.rand import DeterministicRandom


class LatencyModel:
    """Base latency model: fixed propagation + bandwidth-derived delay."""

    def __init__(self, propagation_ms: float = 1.0,
                 bandwidth_bytes_per_ms: float = 125_000.0) -> None:
        if propagation_ms < 0:
            raise ValueError("propagation must be non-negative")
        if bandwidth_bytes_per_ms <= 0:
            raise ValueError("bandwidth must be positive")
        self.propagation_ms = propagation_ms
        self.bandwidth = bandwidth_bytes_per_ms

    def delay(self, source: str, destination: str, size: int,
              rng: Optional[DeterministicRandom] = None) -> float:
        return self.propagation_ms + size / self.bandwidth


class FixedLatency(LatencyModel):
    """Constant per-message delay regardless of size (useful in tests)."""

    def __init__(self, delay_ms: float = 1.0) -> None:
        super().__init__(propagation_ms=delay_ms)
        self._delay = delay_ms

    def delay(self, source, destination, size, rng=None) -> float:
        return self._delay


class UniformLatency(LatencyModel):
    """Propagation plus uniform jitter drawn from the simulator RNG."""

    def __init__(self, low_ms: float, high_ms: float,
                 bandwidth_bytes_per_ms: float = 125_000.0) -> None:
        if low_ms > high_ms:
            raise ValueError("low_ms must not exceed high_ms")
        super().__init__(propagation_ms=low_ms,
                         bandwidth_bytes_per_ms=bandwidth_bytes_per_ms)
        self.low = low_ms
        self.high = high_ms

    def delay(self, source, destination, size, rng=None) -> float:
        base = size / self.bandwidth
        if rng is None:
            return self.low + base
        return rng.uniform(self.low, self.high) + base
