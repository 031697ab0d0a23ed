"""repro — a reproduction of "The Challenge of ODP" (Herbert, 1991).

An ANSA/RM-ODP style open distributed processing platform over a
deterministic simulated network: the ADT computational model, an
engineering model of channels assembled by a transparency compiler, all
eight RM-ODP transparencies, trading, federation, security, streams,
distributed garbage collection and management — plus the enterprise and
information viewpoint languages.

Quickstart::

    from repro import World, OdpObject, operation

    class Counter(OdpObject):
        def __init__(self):
            self.value = 0

        @operation(returns=[int])
        def increment(self):
            self.value += 1
            return self.value

    world = World(seed=1)
    world.node("org", "server-node")
    world.node("org", "client-node")
    servers = world.capsule("server-node", "servers")
    clients = world.capsule("client-node", "clients")

    ref = servers.export(Counter())
    counter = world.binder_for(clients).bind(ref)
    assert counter.increment() == 1      # a real remote invocation
"""

from repro.comp.constraints import (
    EnvironmentConstraints,
    FailureSpec,
    ReplicationSpec,
    SecuritySpec,
)
from repro.comp.invocation import QoS
from repro.comp.model import OdpObject, operation, signature_of
from repro.comp.outcomes import Signal, Termination
from repro.comp.reference import InterfaceRef
from repro.engine.binder import Binder, Proxy
from repro.engine.futures import AsyncInvoker, Future
from repro.net.fault import (
    CrashWindow,
    CutWindow,
    FaultSchedule,
    FlakyWindow,
    GrayWindow,
)
from repro.resilience import CircuitBreaker, ReplyCache, RetryPolicy
from repro.runtime import World
from repro.trace import MetricsRegistry, TraceCollector, TraceContext
from repro.util.freeze import FrozenRecord

__version__ = "1.0.0"

__all__ = [
    "World",
    "OdpObject",
    "operation",
    "signature_of",
    "Signal",
    "Termination",
    "InterfaceRef",
    "Binder",
    "Proxy",
    "AsyncInvoker",
    "Future",
    "QoS",
    "EnvironmentConstraints",
    "ReplicationSpec",
    "FailureSpec",
    "SecuritySpec",
    "FrozenRecord",
    "RetryPolicy",
    "CircuitBreaker",
    "ReplyCache",
    "FaultSchedule",
    "FlakyWindow",
    "CrashWindow",
    "GrayWindow",
    "CutWindow",
    "TraceContext",
    "TraceCollector",
    "MetricsRegistry",
    "__version__",
]
