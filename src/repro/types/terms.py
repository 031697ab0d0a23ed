"""Type terms for ADT values.

The paper models even primitive data (integers, strings) as ADTs whose state
is constant, which is what licenses the engineering optimisation of copying
them across the network (section 4.5).  A :class:`TypeTerm` describes the
shape of a value that may cross an interface: a primitive, a sequence, a
record, or a *reference* to another interface (``RefType``).

Terms are immutable and hashable so they can appear inside signatures,
trader offers and wire headers.
"""

from __future__ import annotations

from typing import Dict, Tuple


class TypeTerm:
    """Base class for all type terms."""

    label = "type"

    def __repr__(self) -> str:
        return self.label

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and repr(self) == repr(other)

    def __hash__(self) -> int:
        return hash(repr(self))


class _Primitive(TypeTerm):
    def __init__(self, label: str) -> None:
        self.label = label


#: Matches any value (top type).
ANY = _Primitive("any")
#: No value (operations/terminations with no results).
VOID = _Primitive("void")
BOOL = _Primitive("bool")
INT = _Primitive("int")
FLOAT = _Primitive("float")
STR = _Primitive("str")
BYTES = _Primitive("bytes")

_PRIMITIVES: Dict[str, TypeTerm] = {
    p.label: p for p in (ANY, VOID, BOOL, INT, FLOAT, STR, BYTES)
}


class SeqType(TypeTerm):
    """Homogeneous sequence of *element* values."""

    def __init__(self, element: TypeTerm) -> None:
        if not isinstance(element, TypeTerm):
            raise TypeError("SeqType element must be a TypeTerm")
        self.element = element
        self.label = f"seq<{element!r}>"


class RecordType(TypeTerm):
    """A record with named, typed fields (order-insensitive)."""

    def __init__(self, fields: Dict[str, TypeTerm]) -> None:
        for name, term in fields.items():
            if not isinstance(term, TypeTerm):
                raise TypeError(f"field {name!r} must be a TypeTerm")
        self.fields: Tuple[Tuple[str, TypeTerm], ...] = tuple(
            sorted(fields.items()))
        inner = ", ".join(f"{n}: {t!r}" for n, t in self.fields)
        self.label = f"record<{inner}>"


class RefType(TypeTerm):
    """A reference to an interface with the given signature.

    The signature import is deferred to avoid a cycle: signatures contain
    type terms and RefType contains a signature.
    """

    def __init__(self, signature) -> None:
        from repro.types.signature import InterfaceSignature

        if not isinstance(signature, InterfaceSignature):
            raise TypeError("RefType requires an InterfaceSignature")
        self.signature = signature
        self.label = f"ref<{signature.describe()}>"


def parse_type(spec) -> TypeTerm:
    """Convert a convenient spec into a :class:`TypeTerm`.

    Accepts an existing term, a primitive name (``"int"``), a Python type
    (``int``), a one-element list (sequence), or a dict (record).  This is
    the notation the ``@operation`` decorator and trader queries use.
    """
    if isinstance(spec, TypeTerm):
        return spec
    if isinstance(spec, str):
        try:
            return _PRIMITIVES[spec]
        except KeyError:
            raise ValueError(f"unknown primitive type {spec!r}") from None
    if spec is None:
        return VOID
    if spec is bool:
        return BOOL
    if spec is int:
        return INT
    if spec is float:
        return FLOAT
    if spec is str:
        return STR
    if spec is bytes:
        return BYTES
    if isinstance(spec, list):
        if len(spec) != 1:
            raise ValueError("sequence spec must be a one-element list")
        return SeqType(parse_type(spec[0]))
    if isinstance(spec, dict):
        return RecordType({k: parse_type(v) for k, v in spec.items()})
    raise ValueError(f"cannot interpret type spec {spec!r}")
