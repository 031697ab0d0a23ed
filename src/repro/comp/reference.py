"""Interface references — the distribution-transparent pointers.

Section 4.4: "'state' is represented by references (distribution
transparent 'pointers') to ADT interfaces ... all arguments and results are
passed by copying references to ADT interfaces".

A reference carries:

* the interface identity and the signature (so type checks can happen at
  bind time without a round trip),
* one or more *access paths* — (node, capsule, protocol, wire format)
  tuples.  Multiple paths model the paper's observation that "there may be
  several protocols by which an interface can be accessed" (section 5.4),
* an *epoch* used by location transparency to detect staleness cheaply,
* a *context path* for federation: names crossing a domain boundary are
  extended "with information about how to get back to their defining
  context" (section 6 — context-relative naming).

References are immutable values; relocation produces a new reference.  As
the paper notes for security (section 7.1), references are not themselves
secret — anyone may assemble one, and servers must guard accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.types.signature import InterfaceSignature


@dataclass(frozen=True)
class AccessPath:
    """One way of reaching an interface."""

    node: str
    capsule: str
    protocol: str = "rrp"      # request-reply protocol by default
    wire_format: str = "packed"

    def describe(self) -> str:
        return f"{self.protocol}://{self.node}/{self.capsule}[{self.wire_format}]"


class InterfaceRef:
    """An immutable, copyable reference to a (possibly remote) interface."""

    __slots__ = ("interface_id", "signature", "paths", "epoch", "context",
                 "group")

    #: References are immutable values and may be fields of copied records.
    __odp_frozen__ = True

    def __init__(self, interface_id: str, signature: InterfaceSignature,
                 paths: Tuple[AccessPath, ...],
                 epoch: int = 0,
                 context: Tuple[str, ...] = (),
                 group: bool = False) -> None:
        object.__setattr__(self, "interface_id", interface_id)
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "paths", tuple(paths))
        object.__setattr__(self, "epoch", epoch)
        object.__setattr__(self, "context", tuple(context))
        object.__setattr__(self, "group", group)

    def __setattr__(self, name, value):
        raise AttributeError("InterfaceRef is immutable")

    # -- derivation helpers (each returns a new reference) -------------------

    def with_context(self, context) -> "InterfaceRef":
        return InterfaceRef(self.interface_id, self.signature, self.paths,
                            self.epoch, tuple(context), self.group)

    def prefixed_context(self, domain: str) -> "InterfaceRef":
        """Extend the context path as the reference crosses out of *domain*."""
        return self.with_context((domain,) + self.context)

    def primary_path(self) -> AccessPath:
        if not self.paths:
            raise ValueError(f"reference {self.interface_id} has no paths")
        return self.paths[0]

    def paths_for_protocol(self, protocol: str) -> Tuple[AccessPath, ...]:
        return tuple(p for p in self.paths if p.protocol == protocol)

    @property
    def home_domain(self) -> Optional[str]:
        """Outermost defining context, if the ref ever crossed a boundary."""
        return self.context[0] if self.context else None

    def __eq__(self, other) -> bool:
        return (isinstance(other, InterfaceRef)
                and self.interface_id == other.interface_id
                and self.epoch == other.epoch
                and self.paths == other.paths
                and self.context == other.context)

    def __hash__(self) -> int:
        return hash((self.interface_id, self.epoch, self.paths,
                     self.context))

    def __repr__(self) -> str:
        where = self.paths[0].describe() if self.paths else "<no path>"
        ctx = "/".join(self.context) or "-"
        return (f"InterfaceRef({self.interface_id} @ {where}, "
                f"epoch={self.epoch}, ctx={ctx})")
