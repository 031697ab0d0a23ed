"""Channel layers.

A channel is a chain of layers; each layer sees the invocation on the way
down and the termination on the way up, and may transform, redirect, retry
or reject it.  This is the concrete form of the paper's rule that
"transparency is achieved by linking transparency mechanisms into the access
path to an interface" (section 4.5) — each transparency contributes one
layer, and selective transparency means simply: fewer layers.
"""

from __future__ import annotations

from typing import Callable

from repro.comp.invocation import Invocation
from repro.comp.outcomes import Termination

#: Continuation type: the rest of the stack below this layer.
NextClient = Callable[[Invocation], Termination]
NextServer = Callable[[Invocation], Termination]


class ClientLayer:
    """Base class for client-side channel layers."""

    name = "client-layer"

    def request(self, invocation: Invocation,
                next_layer: NextClient) -> Termination:
        """Process *invocation*, usually by delegating to *next_layer*."""
        return next_layer(invocation)


class ServerLayer:
    """Base class for server-side (interface-attached) layers."""

    name = "server-layer"

    def handle(self, invocation: Invocation, interface,
               next_layer: NextServer) -> Termination:
        return next_layer(invocation)


def compose_client(layers, transport) -> NextClient:
    """Fold a layer list over the transport into one callable."""
    def terminal(invocation: Invocation) -> Termination:
        return transport(invocation)

    chain = terminal
    for layer in reversed(list(layers)):
        chain = _bind_client(layer, chain)
    return chain


def _bind_client(layer: ClientLayer, below: NextClient) -> NextClient:
    def step(invocation: Invocation) -> Termination:
        return layer.request(invocation, below)
    return step


def compose_server(layers, interface, core) -> NextServer:
    """Fold server layers (outermost first) over the method dispatch."""
    chain = core
    for layer in reversed(list(layers)):
        chain = _bind_server(layer, interface, chain)
    return chain


def _bind_server(layer: ServerLayer, interface,
                 below: NextServer) -> NextServer:
    def step(invocation: Invocation) -> Termination:
        return layer.handle(invocation, interface, below)
    return step
