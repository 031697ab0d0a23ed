"""Access transparency introspection helpers.

Access transparency itself is realised by the generated proxies
(:class:`~repro.engine.binder.Proxy`), the marshaller and the dispatcher.
This module adds introspection over assembled channels so management tools
and tests can see exactly which mechanisms a given access path contains —
the observable form of "selective transparency".
"""

from __future__ import annotations

from typing import List

from repro.engine.binder import Proxy


def describe_client_stack(proxy_or_channel) -> List[str]:
    """Layer names of a client channel, outermost first, plus transport."""
    channel = (proxy_or_channel._channel
               if isinstance(proxy_or_channel, Proxy) else proxy_or_channel)
    names = [layer.name for layer in channel.layers]
    names.append(getattr(channel.transport, "name", "transport"))
    return names


def describe_server_stack(interface) -> List[str]:
    """Layer names of an interface's server stack, outermost first."""
    return [layer.name
            for layer in interface.annotations.get("server_layers", [])]

