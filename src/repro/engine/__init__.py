"""The ODP engineering model (paper section 4.5).

Capsules hold exported interfaces; nuclei connect capsules to the network;
channels are stacks of transparency layers linked "into the access path to
an interface so that effects due to distribution are filtered".  The binder
performs late, type-checked binding of clients to servers (section 4.3) and
applies the direct-local-access optimisation when permitted.
"""

from repro.engine.layers import ClientLayer, ServerLayer, MetricsLayer
from repro.engine.capsule import Capsule
from repro.engine.nucleus import Nucleus
from repro.engine.channel import Channel, TransportLayer
from repro.engine.dispatcher import Dispatcher
from repro.engine.binder import Binder, Proxy
from repro.engine.futures import AsyncInvoker, Future, ReplyRouter

__all__ = [
    "AsyncInvoker",
    "Future",
    "ReplyRouter",
    "ClientLayer",
    "ServerLayer",
    "MetricsLayer",
    "Capsule",
    "Nucleus",
    "Channel",
    "TransportLayer",
    "Dispatcher",
    "Binder",
    "Proxy",
]
