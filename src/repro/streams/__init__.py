"""Streams and explicit binding (paper section 7.2).

"A stream interface ... represents a point at which any form of
interaction [can] occur, including continuous flows such as video.  A
stream is described in terms of its type and its quality of service
requirements.  A stream interface can be traded and passed in arguments
and results just as an operations interface: there is however no means
for ADT style interaction at a stream interface.  ... For streams a means
of explicit binding must be defined ... the binding process produces an
interface containing control and management functions."

Built here: stream endpoints with typed flows, an explicit binder
parameterised by a flow template, frame transport over the simulated
network, per-flow QoS monitoring, a binding control interface (start,
stop, ``set_rate``) invocable from other nodes, and an inter-stream
synchroniser (the lip-sync problem).
"""

from repro.streams.stream import FlowSpec, StreamQoS, StreamEndpoint
from repro.streams.qos import QoSMonitor
from repro.streams.binding import StreamBinding, BindingControl, StreamManager
from repro.streams.sync import SyncController

__all__ = [
    "FlowSpec",
    "StreamQoS",
    "StreamEndpoint",
    "QoSMonitor",
    "StreamBinding",
    "BindingControl",
    "StreamManager",
    "SyncController",
]
