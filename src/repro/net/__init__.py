"""Network simulator substrate.

Reproduces the intrinsic properties of distribution the paper identifies
(section 4.1): physical separation, variable latency, message loss, network
partition and node crash.  The engineering layer above never bypasses this
package — every remote invocation pays simulated transit.
"""

from repro.net.message import NetMessage
from repro.net.latency import LatencyModel, FixedLatency, UniformLatency
from repro.net.fault import FaultPlan
from repro.net.network import Network, NetworkNode

__all__ = [
    "NetMessage",
    "LatencyModel",
    "FixedLatency",
    "UniformLatency",
    "FaultPlan",
    "Network",
    "NetworkNode",
]
