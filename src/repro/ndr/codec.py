"""The marshaller: ADT values <-> plain-object trees.

This is where the computational rule "all arguments and results are passed
by copying references to ADT interfaces" (section 4.4) meets the engineering
optimisation "objects which have constant state can be copied ... in place
of interface references" (section 4.5):

* immutable values (primitives, tuples, frozen records) are copied,
* :class:`~repro.comp.reference.InterfaceRef` values are passed by
  reference (their identity, paths, epoch, context and full signature are
  serialised),
* mutable application objects are *implicitly exported*: the marshaller
  calls back into the capsule to obtain a reference, so sharing semantics
  are preserved exactly as the computational model demands.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.comp.outcomes import Termination
from repro.comp.reference import AccessPath, InterfaceRef
from repro.errors import MarshalError
from repro.ndr.sigcodec import signature_from_obj, signature_to_obj
from repro.util.freeze import FrozenRecord

#: Marker key used for non-plain values in the object tree.
KIND = "__kind__"

Exporter = Callable[[Any], InterfaceRef]


class Marshaller:
    """Converts between application values and wire-ready object trees.

    ``exporter`` is the capsule hook used to pass mutable objects by
    reference; when absent, attempting to marshal a mutable object is an
    error (the strict computational-model behaviour).
    """

    def __init__(self, exporter: Optional[Exporter] = None) -> None:
        self.exporter = exporter
        self.refs_exported = 0

    # -- marshalling --------------------------------------------------------

    def marshal(self, value: Any) -> Any:
        if value is None or isinstance(value, (bool, int, float, str,
                                               bytes)):
            return value
        if isinstance(value, InterfaceRef):
            return self._marshal_ref(value)
        if isinstance(value, Termination):
            return {
                KIND: "term",
                "name": value.name,
                "values": [self.marshal(v) for v in value.values],
            }
        if isinstance(value, (list, tuple)):
            return [self.marshal(v) for v in value]
        if isinstance(value, FrozenRecord):
            return {
                KIND: "record",
                "fields": {k: self.marshal(v) for k, v in value.items()},
            }
        if isinstance(value, dict):
            return {
                KIND: "record",
                "fields": {self._str_key(k): self.marshal(v)
                           for k, v in value.items()},
            }
        if isinstance(value, (set, frozenset)):
            return {
                KIND: "set",
                "items": sorted((self.marshal(v) for v in value),
                                key=repr),
            }
        # A mutable application object: pass by reference via the exporter.
        if self.exporter is not None:
            ref = self.exporter(value)
            self.refs_exported += 1
            return self._marshal_ref(ref)
        raise MarshalError(
            f"cannot marshal mutable {type(value).__name__} without an "
            f"exporter: ADT values cross interfaces by reference")

    @staticmethod
    def _str_key(key: Any) -> str:
        if not isinstance(key, str):
            raise MarshalError("record field names must be strings")
        return key

    def _marshal_ref(self, ref: InterfaceRef) -> Dict[str, Any]:
        return {
            KIND: "ref",
            "id": ref.interface_id,
            "epoch": ref.epoch,
            "group": ref.group,
            "context": list(ref.context),
            "paths": [
                {"node": p.node, "capsule": p.capsule,
                 "protocol": p.protocol, "wire_format": p.wire_format}
                for p in ref.paths
            ],
            "signature": signature_to_obj(ref.signature),
        }

    # -- unmarshalling -------------------------------------------------------

    def unmarshal(self, obj: Any) -> Any:
        """The value a decoded tree stands for.  The tree comes from
        outside the program: whatever its shape, the only error is
        :class:`MarshalError`."""
        try:
            return self._unmarshal(obj)
        except (AttributeError, KeyError, TypeError,
                RecursionError) as exc:
            raise MarshalError(f"malformed wire object: {exc!r}") from exc

    def _unmarshal(self, obj: Any) -> Any:
        if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
            return obj
        if isinstance(obj, list):
            return tuple(self._unmarshal(item) for item in obj)
        if isinstance(obj, dict):
            kind = obj.get(KIND)
            if kind == "ref":
                return self._unmarshal_ref(obj)
            if kind == "term":
                return Termination(
                    obj["name"],
                    tuple(self._unmarshal(v) for v in obj["values"]))
            if kind == "record":
                return FrozenRecord({k: self._unmarshal(v)
                                     for k, v in obj["fields"].items()})
            if kind == "set":
                return frozenset(self._unmarshal(v) for v in obj["items"])
            raise MarshalError(f"unknown wire object kind {kind!r}")
        raise MarshalError(
            f"unexpected wire object of type {type(obj).__name__}")

    def _unmarshal_ref(self, obj: Dict[str, Any]) -> InterfaceRef:
        try:
            paths = tuple(
                AccessPath(p["node"], p["capsule"], p["protocol"],
                           p["wire_format"])
                for p in obj["paths"])
            return InterfaceRef(
                obj["id"],
                signature_from_obj(obj["signature"]),
                paths,
                epoch=obj["epoch"],
                context=tuple(obj["context"]),
                group=obj.get("group", False),
            )
        except (KeyError, TypeError) as exc:
            raise MarshalError(f"malformed reference object: {exc}") from exc

    # -- batches -------------------------------------------------------------

    def marshal_args(self, args) -> List[Any]:
        return [self.marshal(a) for a in args]

    def unmarshal_args(self, objs) -> tuple:
        return tuple(self.unmarshal(o) for o in objs)
