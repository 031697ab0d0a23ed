"""Network message envelope.

Payloads are opaque ``bytes`` — the engineering layer above is responsible
for marshalling (access transparency).  Keeping the network byte-oriented is
what forces genuine heterogeneity handling: two nodes with different native
wire formats really cannot exchange structured data without translation.
"""

from __future__ import annotations

from typing import Dict, Optional


class NetMessage:
    """One datagram in flight between two nodes.

    A ``__slots__`` record rather than a dataclass: one of these is
    allocated per network leg, so its footprint sits on the hot path.
    """

    __slots__ = ("source", "destination", "payload", "kind", "headers",
                 "sent_at")

    def __init__(self, source: str, destination: str, payload: bytes,
                 kind: str = "data",
                 headers: Optional[Dict[str, str]] = None,
                 sent_at: float = 0.0) -> None:
        self.source = source
        self.destination = destination
        self.payload = payload
        self.kind = kind              # "data" | "control" | "stream"
        self.headers = {} if headers is None else headers
        self.sent_at = sent_at

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NetMessage):
            return NotImplemented
        return (self.source == other.source
                and self.destination == other.destination
                and self.payload == other.payload
                and self.kind == other.kind
                and self.headers == other.headers
                and self.sent_at == other.sent_at)

    def __repr__(self) -> str:
        return (f"NetMessage({self.source}->{self.destination}, "
                f"{self.kind}, {len(self.payload)}B)")
